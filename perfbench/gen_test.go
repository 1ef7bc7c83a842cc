package main

import (
	"bytes"
	"testing"
)

// The same seed must generate byte-identical request bodies, and another
// seed different ones.
func TestSameSeedSameBodies(t *testing.T) {
	sim, err := newSim()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"infer-small", "dynamic-rw"} {
		a, err := buildWorkload(name, 7, 1, sim, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := buildWorkload(name, 7, 1, sim, nil)
		if err != nil {
			t.Fatal(err)
		}
		c, err := buildWorkload(name, 8, 1, sim, nil)
		if err != nil {
			t.Fatal(err)
		}
		same, differ := true, false
		for i, st := range a.open {
			for j, o := range st.ops {
				same = same && bytes.Equal(o.body, b.open[i].ops[j].body) && st.at[j] == b.open[i].at[j]
				differ = differ || !bytes.Equal(o.body, c.open[i].ops[j].body)
			}
		}
		if !same {
			t.Errorf("%s: seed 7 generated different bodies twice", name)
		}
		if !differ {
			t.Errorf("%s: seeds 7 and 8 generated the same bodies", name)
		}
	}
}

// The expected answers are the served system's own contract: a generated
// small request checks against its in-process embeddings and fails on a
// flipped bit.
func TestEmbeddingCheck(t *testing.T) {
	want := [][]float32{{1, 2}, {3, 4}}
	check := checkEmbeddings(want)
	if err := check([]byte(`{"embeddings":[[1,2],[3,4]]}`)); err != nil {
		t.Fatalf("identical answer rejected: %v", err)
	}
	if err := check([]byte(`{"embeddings":[[1,2],[3,4.0000005]]}`)); err == nil {
		t.Fatal("answer one ulp off accepted")
	}
	if err := check([]byte(`{"embeddings":[[1,2]]}`)); err == nil {
		t.Fatal("short answer accepted")
	}
}
