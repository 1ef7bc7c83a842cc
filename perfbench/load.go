package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"
)

// maxConns caps the connections the load generator opens: the box has two
// CPUs, and every workload runs on at most that many connections.
const maxConns = 2

// Operation classes. Latency percentiles are reported over classRead;
// classWrite (dynamic-rw mutations) is reported separately.
const (
	classRead = iota
	classWrite
)

// op is one pre-encoded request. check validates a 2xx answer's body; any
// other status, a transport error or a failed check makes the op failed.
type op struct {
	id     int64
	class  int
	path   string
	ctype  string
	body   []byte
	check  func(body []byte) error
	poolIx int // index of the generated input the body encodes (-1 none)
}

// result is what one op did. All times are offsets from the run's start.
type result struct {
	op     *op
	due    time.Duration // scheduled send time (open loop) or actual send (closed)
	sent   time.Duration
	done   time.Duration
	late   time.Duration // how far the generator itself ran behind
	status int
	err    error
}

func (r result) ok() bool               { return r.err == nil }
func (r result) mismatch() bool         { return errors.Is(r.err, errMismatch) }
func (r result) latency() time.Duration { return r.done - r.due }

// sender executes one op and returns the status and body.
type sender interface {
	send(o *op) (int, []byte, error)
}

// httpSender owns one keep-alive connection to the front server.
type httpSender struct {
	client *http.Client
	base   string
}

// newHTTPSenders returns n senders of one connection each, counting dials
// into dials so a run can prove it stayed within maxConns connections.
func newHTTPSenders(n int, base string, timeout time.Duration, dials *atomic.Int64) ([]sender, error) {
	if n < 1 || n > maxConns {
		return nil, fmt.Errorf("load: %d connections requested, allowed 1..%d", n, maxConns)
	}
	out := make([]sender, n)
	for i := range out {
		d := &net.Dialer{Timeout: 5 * time.Second}
		tr := &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
			DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
				dials.Add(1)
				return d.DialContext(ctx, network, addr)
			},
		}
		out[i] = &httpSender{client: &http.Client{Transport: tr, Timeout: timeout}, base: base}
	}
	return out, nil
}

func (h *httpSender) send(o *op) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, h.base+o.path, bytes.NewReader(o.body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", o.ctype)
	resp, err := h.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func (h *httpSender) close() { h.client.CloseIdleConnections() }

// handlerSender calls an in-process handler directly (the traced replay).
// around, when set, wraps every call (span recording).
type handlerSender struct {
	h      http.Handler
	around func(o *op, call func())
}

func (s *handlerSender) send(o *op) (int, []byte, error) {
	req := httptest.NewRequest(http.MethodPost, o.path, bytes.NewReader(o.body))
	req.Header.Set("Content-Type", o.ctype)
	rec := httptest.NewRecorder()
	call := func() { s.h.ServeHTTP(rec, req) }
	if s.around != nil {
		s.around(o, call)
	} else {
		call()
	}
	return rec.Code, rec.Body.Bytes(), nil
}

// execute sends o and classifies the answer.
func execute(s sender, o *op) (int, error) {
	status, body, err := s.send(o)
	if err != nil {
		return status, err
	}
	if status < 200 || status > 299 {
		return status, fmt.Errorf("status %d: %.200s", status, body)
	}
	if o.check != nil {
		if err := o.check(body); err != nil {
			return status, fmt.Errorf("%w: %v", errMismatch, err)
		}
	}
	return status, nil
}

// errMismatch marks an answer that arrived but failed its output check.
var errMismatch = errors.New("output mismatch")

// stream is one open-loop arrival process: ops[i] is due at at[i] after the
// start, served over the given senders (one connection each).
type stream struct {
	ops     []*op
	at      []time.Duration
	senders []sender
}

// runOpen offers every stream on its schedule. Each sender takes the next
// unsent op, waits for its due time and sends it; when every sender is busy
// the op waits, and that wait counts in its latency because latency runs
// from the due time. Lateness is only the generator's own delay: send time
// minus the later of the due time and the moment the sender became free.
func runOpen(start time.Time, streams []stream) []result {
	var mu sync.Mutex
	var results []result
	var wg sync.WaitGroup
	for _, st := range streams {
		var next atomic.Int64
		for _, s := range st.senders {
			wg.Add(1)
			go func(st stream, s sender) {
				defer wg.Done()
				var local []result
				for {
					i := int(next.Add(1) - 1)
					if i >= len(st.ops) {
						break
					}
					free := time.Since(start)
					due := st.at[i]
					if d := due - free; d > 0 {
						time.Sleep(d)
					}
					sent := time.Since(start)
					status, err := execute(s, st.ops[i])
					local = append(local, result{
						op: st.ops[i], due: due, sent: sent, done: time.Since(start),
						late: sent - max(due, free), status: status, err: err,
					})
				}
				mu.Lock()
				results = append(results, local...)
				mu.Unlock()
			}(st, s)
		}
	}
	wg.Wait()
	return results
}

// runClosed runs one client per sender: each sends its sequence in a cycle,
// the next op only after the previous answer, until the run lasts `length`.
// Latency runs from the actual send, since a closed loop has no schedule.
func runClosed(start time.Time, seqs [][]*op, senders []sender, length time.Duration) []result {
	var mu sync.Mutex
	var results []result
	var wg sync.WaitGroup
	for c := range senders {
		wg.Add(1)
		go func(seq []*op, s sender) {
			defer wg.Done()
			var local []result
			for i := 0; time.Since(start) < length; i++ {
				o := seq[i%len(seq)]
				sent := time.Since(start)
				status, err := execute(s, o)
				local = append(local, result{op: o, due: sent, sent: sent, done: time.Since(start), status: status, err: err})
			}
			mu.Lock()
			results = append(results, local...)
			mu.Unlock()
		}(seqs[c], senders[c])
	}
	wg.Wait()
	return results
}

// evenSchedule returns n due times at a constant rate, offset by phase
// (a fraction of one interval) so interleaved streams do not collide.
func evenSchedule(n int, perSecond, phase float64) []time.Duration {
	at := make([]time.Duration, n)
	step := float64(time.Second) / perSecond
	for i := range at {
		at[i] = time.Duration((float64(i) + phase) * step)
	}
	return at
}
