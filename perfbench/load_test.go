package main

import (
	"sync/atomic"
	"testing"
	"time"
)

// stallSender answers instantly except for one op, which it holds for
// stall.
type stallSender struct {
	stallID int64
	stall   time.Duration
	calls   atomic.Int64
}

func (s *stallSender) send(o *op) (int, []byte, error) {
	s.calls.Add(1)
	if o.id == s.stallID {
		time.Sleep(s.stall)
	}
	return 200, nil, nil
}

// A stall delays every op due while it lasts; open-loop latency, timed from
// each op's due time, must show that wait, and the generator must not be
// blamed for it.
func TestOpenLoopLatencyIncludesStall(t *testing.T) {
	const n, rate = 20, 100.0 // one op every 10ms
	stall := 150 * time.Millisecond
	ops := make([]*op, n)
	for i := range ops {
		ops[i] = &op{id: int64(i)}
	}
	s := &stallSender{stallID: 2, stall: stall}
	res := runOpen(time.Now(), []stream{{ops: ops, at: evenSchedule(n, rate, 0), senders: []sender{s}}})
	if len(res) != n || s.calls.Load() != n {
		t.Fatalf("%d results, %d calls; want %d", len(res), s.calls.Load(), n)
	}
	byID := map[int64]result{}
	for _, r := range res {
		byID[r.op.id] = r
	}
	// Op 3 was due 10ms after op 2 started its 150ms stall: it waited
	// ~140ms and its latency must say so, not its ~0 service time.
	if l := byID[3].latency(); l < 120*time.Millisecond {
		t.Errorf("op 3 latency %v, want ≥120ms (it queued behind the stall)", l)
	}
	if svc := byID[3].done - byID[3].sent; svc > 20*time.Millisecond {
		t.Errorf("op 3 service time %v, want ~0", svc)
	}
	// Ops due after the stall cleared are on time again.
	if l := byID[n-1].latency(); l > 20*time.Millisecond {
		t.Errorf("op %d latency %v, want ~0", n-1, l)
	}
	for _, r := range res {
		if r.late > 20*time.Millisecond {
			t.Errorf("op %d: generator lateness %v; waiting on a busy connection is not lateness", r.op.id, r.late)
		}
	}
}

func TestClosedLoopSendsAfterEachAnswer(t *testing.T) {
	ops := []*op{{id: 0}, {id: 1}}
	s := &stallSender{stallID: -1}
	res := runClosed(time.Now(), [][]*op{ops}, []sender{s}, 20*time.Millisecond)
	if len(res) < 2 {
		t.Fatalf("%d results in 20ms of an instant server", len(res))
	}
	for i := 1; i < len(res); i++ {
		if res[i].sent < res[i-1].done {
			t.Fatalf("op %d sent at %v before the previous answer at %v", i, res[i].sent, res[i-1].done)
		}
		if res[i].op.id != int64(i%2) {
			t.Fatalf("op %d is id %d, want the sequence cycled", i, res[i].op.id)
		}
	}
}

func TestConnectionCap(t *testing.T) {
	var dials atomic.Int64
	if _, err := newHTTPSenders(maxConns+1, "http://127.0.0.1:1", time.Second, &dials); err == nil {
		t.Fatalf("%d connections accepted, cap is %d", maxConns+1, maxConns)
	}
}
