package main

import (
	"testing"
	"time"
)

func sp(start, end time.Duration) span { return span{Start: start, End: end} }

func TestSelfTimeOverlappingChildren(t *testing.T) {
	ms := time.Millisecond
	parent := sp(0, 100*ms)
	cases := []struct {
		name string
		kids []span
		want time.Duration
	}{
		{"none", nil, 100 * ms},
		{"disjoint", []span{sp(10*ms, 20*ms), sp(30*ms, 50*ms)}, 70 * ms},
		// Two shard workers in parallel: the union counts once.
		{"overlapping", []span{sp(10*ms, 40*ms), sp(20*ms, 60*ms)}, 50 * ms},
		{"nested", []span{sp(10*ms, 60*ms), sp(20*ms, 30*ms)}, 50 * ms},
		{"touching", []span{sp(10*ms, 20*ms), sp(20*ms, 30*ms)}, 80 * ms},
		// Children outside the parent are clipped to it.
		{"clipped", []span{sp(-10*ms, 10*ms), sp(90*ms, 120*ms)}, 80 * ms},
		{"unsorted", []span{sp(70*ms, 80*ms), sp(10*ms, 30*ms), sp(25*ms, 35*ms)}, 65 * ms},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.kids); got != c.want {
			t.Errorf("%s: selfTime = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	s := tr.end(tr.begin("x", 0, 1))
	if s.ID != 0 || tr.byName("x") != nil {
		t.Fatalf("nil tracer recorded %+v", s)
	}
	tr = newTracer()
	outer := tr.begin("outer", 0, 7)
	inner := tr.end(tr.begin("inner", outer.ID, 7))
	tr.end(outer)
	if kids := tr.children(outer.ID); len(kids) != 1 || kids[0].ID != inner.ID {
		t.Fatalf("children(outer) = %+v", kids)
	}
}
