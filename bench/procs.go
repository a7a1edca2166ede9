package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"syscall"
	"time"
)

// The system under test runs as child processes built from this
// checkout. Every child is registered in live until it has been waited
// for, so any exit path of the benchmark can kill what is still
// running.

// sutBinaries are the shipped programs the benchmark drives.
var sutBinaries = []string{"mobiserve", "mobirouter", "mobianon", "mobieval"}

// buildBinaries compiles the shipped programs into binDir and returns
// how long that took. The go command skips up-to-date targets, so only
// the first run in a checkout pays for a build.
func buildBinaries(root, binDir string) (time.Duration, error) {
	args := []string{"build", "-o", binDir + string(filepath.Separator)}
	for _, b := range sutBinaries {
		args = append(args, "./cmd/"+b)
	}
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	start := time.Now()
	if err := cmd.Run(); err != nil {
		return 0, fmt.Errorf("go %v: %w\n%s", args, err, out.Bytes())
	}
	return time.Since(start), nil
}

// usage is what a finished child cost.
type usage struct {
	cpu    time.Duration // user + system
	rssMB  float64       // peak resident set
	wall   time.Duration // start to exit
	failed bool          // non-zero exit
}

func usageOf(ps *os.ProcessState, wall time.Duration, rssMB float64) usage {
	return usage{cpu: ps.UserTime() + ps.SystemTime(), rssMB: rssMB, wall: wall, failed: !ps.Success()}
}

// peakRSS reads a running process's peak resident set (VmHWM) in MB,
// 0 once the process is gone. The ru_maxrss that wait4 reports cannot
// serve: a child starts life sharing the benchmark's address space, and
// exec charges that space's peak — hundreds of MB of encoded traffic —
// to the child.
func peakRSS(pid int) float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	_, rest, ok := bytes.Cut(data, []byte("VmHWM:"))
	if !ok {
		return 0
	}
	var kb float64
	fmt.Sscan(string(rest), &kb)
	return kb / 1024
}

// proc is a running child.
type proc struct {
	name    string
	cmd     *exec.Cmd
	logPath string
	started time.Time
}

var (
	liveMu sync.Mutex
	live   = map[*proc]bool{}
)

// startProc launches bin with args, its output going to a log file in
// dir.
func startProc(dir, name, bin string, args ...string) (*proc, error) {
	p := &proc{name: name, logPath: filepath.Join(dir, name+".log")}
	logf, err := os.Create(p.logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	p.cmd = exec.Command(bin, args...)
	p.cmd.Dir = dir
	p.cmd.Stdout, p.cmd.Stderr = logf, logf
	p.started = time.Now()
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	liveMu.Lock()
	live[p] = true
	liveMu.Unlock()
	return p, nil
}

// stop asks the child to shut down (SIGTERM, so mobiserve drains its
// engine and commits its sink's manifest), waits for it, and kills it
// if it takes longer than a generous drain.
func (p *proc) stop() (usage, error) {
	rss := peakRSS(p.cmd.Process.Pid)
	p.cmd.Process.Signal(syscall.SIGTERM)
	timer := time.AfterFunc(20*time.Second, func() { p.cmd.Process.Kill() })
	err := p.cmd.Wait()
	timer.Stop()
	liveMu.Lock()
	delete(live, p)
	liveMu.Unlock()
	u := usageOf(p.cmd.ProcessState, time.Since(p.started), rss)
	if err != nil {
		tail, _ := os.ReadFile(p.logPath)
		return u, fmt.Errorf("%s: %w\n%s", p.name, err, lastBytes(tail, 2000))
	}
	return u, nil
}

// killLive kills and reaps every child still running.
func killLive() {
	liveMu.Lock()
	ps := make([]*proc, 0, len(live))
	for p := range live {
		ps = append(ps, p)
	}
	clear(live)
	liveMu.Unlock()
	for _, p := range ps {
		p.cmd.Process.Kill()
		p.cmd.Wait()
	}
}

func lastBytes(b []byte, n int) []byte {
	if len(b) > n {
		return b[len(b)-n:]
	}
	return b
}

// runCLI runs a batch tool to completion and returns its standard
// output and cost. A non-zero exit is reported in usage.failed, with
// the tool's standard error in the error. Cancelling ctx kills the tool.
func runCLI(ctx context.Context, dir, bin string, args ...string) ([]byte, usage, error) {
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, usage{failed: true}, fmt.Errorf("%s: %w", filepath.Base(bin), err)
	}
	// Sample the peak while the tool runs; its memory is flat, so the
	// last sample before exit is the peak to within a few milliseconds.
	exited := make(chan struct{})
	var rss float64
	go func() {
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-exited:
				return
			case <-tick.C:
				rss = max(rss, peakRSS(cmd.Process.Pid))
			}
		}
	}()
	err := cmd.Wait()
	exited <- struct{}{}
	u := usageOf(cmd.ProcessState, time.Since(start), rss)
	if err != nil {
		err = fmt.Errorf("%s %v: %w\n%s", filepath.Base(bin), args, err, lastBytes(stderr.Bytes(), 2000))
	}
	return stdout.Bytes(), u, err
}

// freeAddr returns a loopback address whose port was free a moment
// ago.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// waitHealthy polls GET /healthz until it answers 200.
func waitHealthy(ctx context.Context, addr string) error {
	ctx, cancel := context.WithTimeout(ctx, 15*time.Second)
	defer cancel()
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+addr+"/healthz", nil)
		if err != nil {
			return err
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = errors.New(resp.Status)
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%s not healthy: %w", addr, err)
		case <-time.After(2 * time.Millisecond):
		}
	}
}
