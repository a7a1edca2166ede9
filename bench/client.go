package main

import (
	"bufio"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// The load client. One goroutine per connection sends that
// connection's bodies in order over its own keep-alive connection, so
// a user's points reach the server in the order they were generated.
// A run has two phases against one server lifetime:
//
//   - paced: an open loop at pacedRate points/s. Body i of a connection
//     is due at a fixed instant; if the previous reply is late the body
//     goes out late, but its latency is still counted from the instant
//     it was due, so a stall is charged to every request it delays.
//   - saturation: a closed loop. Each connection sends its next body
//     the moment the previous reply arrives, until it has sent its
//     share of the phase's points.
//
// A connection keeps one cursor through both phases: it walks the base
// day cohort after cohort, and the saturation phase picks up where the
// paced phase stopped.

// pacedRate is the paced phase's total send rate, a fifth to a third
// of what one mobiserve sustains on two cores.
const pacedRate = 60000 // points/s

// sample is one request. Times are offsets from the start of the
// phase.
type sample struct {
	due, sent, done time.Duration
	points          int
	accepted        int
	ok              bool
}

// conn is one client connection's state across the phases.
type conn struct {
	traffic *connTraffic
	addr    string
	tcp     net.Conn
	reader  *bufio.Reader
	header  []byte // request head, rebuilt per request in place
	next    int    // bodies sent so far, counted through the cohorts
	paced   []sample
	sat     []sample
}

func newConns(tr *traffic, addr string) []*conn {
	conns := make([]*conn, len(tr.conns))
	for i := range conns {
		conns[i] = &conn{traffic: &tr.conns[i], addr: addr}
	}
	return conns
}

// post sends the connection's next body and fills in the outcome.
func (c *conn) post(s *sample, phaseStart time.Time) {
	nb := len(c.traffic.bodies)
	i, k := c.next%nb, c.next/nb
	c.traffic.setCohort(i, k)
	s.points = len(c.traffic.tagOffs[i])
	c.next++

	s.sent = time.Since(phaseStart)
	accepted, err := c.do(c.traffic.bodies[i])
	s.done = time.Since(phaseStart)
	s.accepted, s.ok = accepted, err == nil
	if err != nil && c.tcp != nil {
		c.tcp.Close() // the next request dials afresh
		c.tcp = nil
	}
}

// do performs one POST /ingest. The request goes out as a single
// gathered write of a hand-built head and the pre-encoded body: the
// client shares its processors with the system under test, and
// net/http's request writer would copy every body through a fresh
// 32 KiB buffer.
func (c *conn) do(body []byte) (accepted int, err error) {
	if c.tcp == nil {
		if c.tcp, err = net.DialTimeout("tcp", c.addr, 5*time.Second); err != nil {
			return 0, err
		}
		c.reader = bufio.NewReader(c.tcp)
	}
	c.tcp.SetDeadline(time.Now().Add(30 * time.Second))
	c.header = append(c.header[:0], "POST /ingest HTTP/1.1\r\nHost: bench\r\nContent-Type: application/x-ndjson\r\nContent-Length: "...)
	c.header = strconv.AppendInt(c.header, int64(len(body)), 10)
	c.header = append(c.header, "\r\n\r\n"...)
	bufs := net.Buffers{c.header, body}
	if _, err := bufs.WriteTo(c.tcp); err != nil {
		return 0, err
	}
	resp, err := http.ReadResponse(c.reader, nil)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("POST /ingest: %s: %s", resp.Status, reply)
	}
	var out struct {
		Accepted int `json:"accepted"`
	}
	if err := json.Unmarshal(reply, &out); err != nil {
		return 0, err
	}
	return out.Accepted, nil
}

// runPaced sends, on every connection, the bodies that fall due within
// d. A connection's share of pacedRate is its share of the base day's
// points, so all connections move through the day together.
func runPaced(ctx context.Context, conns []*conn, total int, d time.Duration) {
	start := time.Now()
	eachConn(conns, func(c *conn) {
		rate := pacedRate * float64(len(c.traffic.recs)) / float64(total) // points/s
		sent := 0
		for c.next < c.traffic.maxBodies() && ctx.Err() == nil {
			due := time.Duration(float64(sent) / rate * float64(time.Second))
			if due >= d {
				return
			}
			if wait := due - time.Since(start); wait > 0 {
				// Not time.Sleep: an idle Go scheduler waits for timers in
				// epoll_wait, whose millisecond timeout would send most
				// requests 0.5-1 ms late.
				ts := syscall.NsecToTimespec(int64(wait))
				syscall.Nanosleep(&ts, nil)
			}
			c.paced = append(c.paced, sample{due: due})
			s := &c.paced[len(c.paced)-1]
			c.post(s, start)
			sent += s.points
		}
	})
}

// runSaturation has every connection send its share of points more
// points, rounded to whole bodies, as fast as replies allow. The work
// is fixed, not the time: the server speeds up as its heap grows, so a
// time-bounded phase would measure a different stretch of that curve
// on every run.
func runSaturation(ctx context.Context, conns []*conn, total, points int) {
	start := time.Now()
	eachConn(conns, func(c *conn) {
		share := float64(points) * float64(len(c.traffic.recs)) / float64(total)
		bodies := int(math.Round(share / bodyPoints))
		c.sat = make([]sample, 0, bodies)
		for len(c.sat) < bodies && c.next < c.traffic.maxBodies() && ctx.Err() == nil {
			c.sat = append(c.sat, sample{})
			c.post(&c.sat[len(c.sat)-1], start)
		}
	})
}

func eachConn(conns []*conn, fn func(*conn)) {
	var wg sync.WaitGroup
	for _, c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(c)
		}()
	}
	wg.Wait()
}

// chunkRates cuts the saturation phase into n chunks of equal accepted
// points, in the order replies arrived, and returns the points per
// second of each. It stops where the first connection ran out of work,
// so every chunk was served with all connections busy.
func chunkRates(conns []*conn, n int) []float64 {
	end := time.Duration(math.MaxInt64)
	var all []sample
	for _, c := range conns {
		if len(c.sat) > 0 {
			end = min(end, c.sat[len(c.sat)-1].done)
		}
		all = append(all, c.sat...)
	}
	slices.SortFunc(all, func(a, b sample) int { return cmp.Compare(a.done, b.done) })
	total := 0
	for _, s := range all {
		if s.done <= end {
			total += s.accepted
		}
	}
	var rates []float64
	acc, lastAcc, lastT := 0, 0, time.Duration(0)
	for _, s := range all {
		if s.done > end || len(rates) == n {
			break
		}
		acc += s.accepted
		if acc >= total*(len(rates)+1)/n && s.done > lastT {
			rates = append(rates, float64(acc-lastAcc)/(s.done-lastT).Seconds())
			lastAcc, lastT = acc, s.done
		}
	}
	return rates
}

// postOK issues a bodyless POST and requires a 200.
func postOK(ctx context.Context, url string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST %s: %s", url, resp.Status)
	}
	return nil
}

// getJSON decodes the JSON document at url into v.
func getJSON(ctx context.Context, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
