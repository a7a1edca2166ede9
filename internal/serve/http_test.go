package serve_test

import (
	"errors"
	"go/parser"
	"go/token"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"mobipriv/internal/serve"
)

// TestListenAndServeDrainsAfterInFlight pins the shutdown order both
// binaries share: on SIGTERM the listener stops taking connections, a
// request already in flight runs to completion, and only then does
// drain run (for a worker, that is the engine and sink shutdown, which
// would otherwise answer the in-flight ingest with 503 or lose it).
func TestListenAndServeDrainsAfterInFlight(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	var drained atomic.Bool
	entered := make(chan struct{})
	release := make(chan struct{})
	drainedEarly := make(chan bool, 1)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /slow", func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
		drainedEarly <- drained.Load()
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {})
	errDrain := errors.New("drain ran")
	done := make(chan error, 1)
	go func() {
		done <- serve.ListenAndServe(addr, mux, func() error {
			drained.Store(true)
			return errDrain
		})
	}()

	// Up: the signal handler is installed before the listener.
	for {
		resp, err := http.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	slow := make(chan error, 1)
	go func() {
		resp, err := http.Get("http://" + addr + "/slow")
		if err == nil {
			resp.Body.Close()
		}
		slow <- err
	}()
	<-entered

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	// Shutdown has begun once new connections are refused.
	for {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			break
		}
		c.Close()
		time.Sleep(5 * time.Millisecond)
	}
	close(release)
	if early := <-drainedEarly; early {
		t.Error("drain ran while a request was still in flight")
	}
	if err := <-slow; err != nil {
		t.Errorf("in-flight request failed across shutdown: %v", err)
	}
	if err := <-done; !errors.Is(err, errDrain) {
		t.Errorf("ListenAndServe = %v, want drain's error", err)
	}
	if !drained.Load() {
		t.Error("drain never ran")
	}
}

// TestNoWorkerDependency keeps the shared layer light: the router links
// internal/serve, so nothing it reaches, directly or not, may import the
// worker, the mechanism registry, the store or the risk monitor.
func TestNoWorkerDependency(t *testing.T) {
	banned := map[string]bool{
		"mobipriv":                       true,
		"mobipriv/internal/serve/worker": true,
		"mobipriv/internal/store":        true,
		"mobipriv/internal/risk":         true,
	}
	seen := map[string]bool{}
	var walk func(pkg, from string)
	walk = func(pkg, from string) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		if banned[pkg] {
			t.Errorf("internal/serve reaches %s (imported by %s)", pkg, from)
			return
		}
		files, err := filepath.Glob(filepath.Join("..", "..", strings.TrimPrefix(pkg, "mobipriv"), "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("no sources for %s: %v", pkg, err)
		}
		fset := token.NewFileSet()
		for _, f := range files {
			if strings.HasSuffix(f, "_test.go") {
				continue
			}
			af, err := parser.ParseFile(fset, f, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, im := range af.Imports {
				p, _ := strconv.Unquote(im.Path.Value)
				if p == "mobipriv" || strings.HasPrefix(p, "mobipriv/") {
					walk(p, pkg)
				}
			}
		}
	}
	walk("mobipriv/internal/serve", "")
}
