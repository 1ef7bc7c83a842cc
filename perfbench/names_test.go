package main

import (
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"regexp"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	all := append(append([]metricSpec(nil), endToEnd...), perLayer...)
	for _, m := range all {
		if !nameRE.MatchString(m.name) {
			t.Errorf("metric name %q outside [A-Za-z0-9_.-], 64 chars, leading letter or digit", m.name)
		}
		if !unitRE.MatchString(m.unit) {
			t.Errorf("metric %s: unit %q outside [A-Za-z0-9_/%%.-], 16 chars", m.name, m.unit)
		}
		if m.better != "lower" && m.better != "higher" {
			t.Errorf("metric %s: better %q", m.name, m.better)
		}
		if seen[m.name] {
			t.Errorf("metric %s declared twice", m.name)
		}
		seen[m.name] = true
	}
	for _, w := range workloadNames {
		if !nameRE.MatchString(w) {
			t.Errorf("workload name %q has a bad character", w)
		}
	}
}

// BENCHMARK.json at the repository root must declare exactly the metrics
// and workloads this package prints.
func TestBenchmarkFileMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if errors.Is(err, fs.ErrNotExist) {
		t.Skip("no ../BENCHMARK.json")
	}
	if err != nil {
		t.Fatal(err)
	}
	var bm struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bm); err != nil {
		t.Fatal(err)
	}
	if len(bm.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, want %d", len(bm.Workloads), len(workloadNames))
	}
	for i, w := range bm.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q, want %q", i, w.Name, workloadNames[i])
		}
	}
	if len(bm.EndToEnd) != len(endToEnd) || len(bm.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json declares %d+%d metrics, the code %d+%d", len(bm.EndToEnd), len(bm.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range bm.EndToEnd {
		if want := endToEnd[i]; m.Name != want.name || m.Unit != want.unit || m.Better != want.better {
			t.Errorf("end_to_end %d = %s/%s/%s, code prints %s/%s/%s", i, m.Name, m.Unit, m.Better, want.name, want.unit, want.better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %s bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for i, m := range bm.PerLayer {
		if want := perLayer[i]; m.Name != want.name || m.Unit != want.unit || m.Better != want.better {
			t.Errorf("per_layer %d = %s/%s/%s, code prints %s/%s/%s", i, m.Name, m.Unit, m.Better, want.name, want.unit, want.better)
		}
	}
}
