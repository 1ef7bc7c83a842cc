package bench

import (
	"fmt"
	"sync"
	"testing"

	"scale/internal/baseline"
	"scale/internal/core"
)

// deterministicExperiments returns the experiment set and dataset subset the
// determinism cross-check runs. Normal builds cover the full suite on the
// full Table II dataset list; under the race detector the heaviest sweeps
// (the 4K-MAC scalability grid, the hardcoded Reddit/Nell extensions) are
// dropped and the matrix shrinks to two datasets so the run stays tractable.
func deterministicExperiments() ([]Experiment, []string) {
	all := Experiments()
	if !raceEnabled {
		return all, nil
	}
	keep := map[string]bool{
		"table1": true, "fig1a": true, "fig1b": true, "fig1c": true,
		"fig10": true, "fig11": true, "table3": true, "fig13a": true,
		"fig13b": true, "fig15": true, "fig16a": true, "fig16b": true,
		"ext-gat": true, "ext-igcn": true, "ext-systolic": true, "ext-quant": true,
	}
	var exps []Experiment
	for _, e := range all {
		if keep[e.ID] {
			exps = append(exps, e)
		}
	}
	return exps, []string{"cora", "citeseer"}
}

// exportSuite runs exps on r and returns each experiment's JSON export.
func exportSuite(label string, r *Runner, exps []Experiment) (map[string]string, error) {
	out := make(map[string]string, len(exps))
	for _, res := range r.Run(exps) {
		if res.Err != nil {
			return nil, fmt.Errorf("%s %s: %w", label, res.Experiment.ID, res.Err)
		}
		j, err := res.Table.JSON()
		if err != nil {
			return nil, fmt.Errorf("%s %s: %w", label, res.Experiment.ID, err)
		}
		out[res.Experiment.ID] = j
	}
	if len(out) != len(exps) {
		return nil, fmt.Errorf("%s: %d exports, want %d", label, len(out), len(exps))
	}
	return out, nil
}

// determinismRunner returns a Runner on a fresh suite (fresh caches) over the
// determinism dataset subset.
func determinismRunner(workers int) *Runner {
	s := NewSuite()
	if _, datasets := deterministicExperiments(); datasets != nil {
		s.Datasets = datasets
	}
	return NewRunner(s, workers)
}

// The whole-suite export is the costliest thing in tier-1, so the three
// determinism tests share it: the serial compact export every other run is
// compared against, and the 8-worker suite whose warm caches the repeated
// run re-exports. Each is computed once per test binary, on first use.
var (
	serialOnce   sync.Once
	serialExport map[string]string
	serialErr    error

	parallelOnce   sync.Once
	parallelRunner *Runner
	parallelExport map[string]string
	parallelErr    error
)

// serialCompact returns the suite exported on one worker with the default
// compact schedulers.
func serialCompact(t *testing.T) map[string]string {
	t.Helper()
	serialOnce.Do(func() {
		exps, _ := deterministicExperiments()
		serialExport, serialErr = exportSuite("serial", determinismRunner(1), exps)
	})
	if serialErr != nil {
		t.Fatal(serialErr)
	}
	return serialExport
}

// parallelCompact returns the suite exported on eight workers with the
// default compact schedulers, and the Runner whose caches that run warmed.
func parallelCompact(t *testing.T) (*Runner, map[string]string) {
	t.Helper()
	parallelOnce.Do(func() {
		exps, _ := deterministicExperiments()
		parallelRunner = determinismRunner(8)
		parallelExport, parallelErr = exportSuite("workers=8", parallelRunner, exps)
	})
	if parallelErr != nil {
		t.Fatal(parallelErr)
	}
	return parallelRunner, parallelExport
}

// compareExports fails t for every experiment whose export in got differs
// from want.
func compareExports(t *testing.T, wantLabel string, want map[string]string, gotLabel string, got map[string]string) {
	t.Helper()
	exps, _ := deterministicExperiments()
	for _, e := range exps {
		if got[e.ID] != want[e.ID] {
			t.Errorf("%s: %s export differs from %s:\n--- %s ---\n%s\n--- %s ---\n%s",
				e.ID, gotLabel, wantLabel, wantLabel, want[e.ID], gotLabel, got[e.ID])
		}
	}
}

// TestDeterminism is the engine's correctness proof: the full evaluation
// suite run serially and run on eight workers must export byte-identical
// JSON for every figure and table. This is a cross-check between two live
// runs (fresh suites, fresh caches), not a golden-file comparison, so it
// catches both scheduling-dependent float summation and any shared-state
// race that corrupts a result.
func TestDeterminism(t *testing.T) {
	serial := serialCompact(t)
	_, parallel := parallelCompact(t)
	compareExports(t, "serial", serial, "workers=8", parallel)
}

// TestDeterminismCompactVsMaterialized is the golden equivalence proof for
// the compact scheduling representation: the full suite exported with the
// default compact schedulers must be byte-identical to the same suite
// exported with vertex-materializing schedulers, at 1 worker and at 8. Each
// mode gets fresh suites (fresh schedule memos), and the memo keys carry the
// mode bit, so nothing is served across modes.
func TestDeterminismCompactVsMaterialized(t *testing.T) {
	compact := serialCompact(t) // before the mode switch below
	exps, _ := deterministicExperiments()
	core.SetMaterializeSchedules(true)
	baseline.SetMaterializeSchedules(true)
	defer core.SetMaterializeSchedules(false)
	defer baseline.SetMaterializeSchedules(false)
	for _, workers := range []int{1, 8} {
		label := fmt.Sprintf("materialized workers=%d", workers)
		materialized, err := exportSuite(label, determinismRunner(workers), exps)
		if err != nil {
			t.Fatal(err)
		}
		compareExports(t, "compact", compact, label, materialized)
	}
}

// TestDeterminismRepeatedParallel runs the same parallel sweep twice on one
// warm suite: cached results must re-export identically (guards against
// generators reading from map iteration order even when no simulation runs).
func TestDeterminismRepeatedParallel(t *testing.T) {
	if raceEnabled {
		t.Skip("covered by TestDeterminism under race")
	}
	warm, first := parallelCompact(t)
	exps, _ := deterministicExperiments()
	again, err := exportSuite("warm workers=8", warm, exps)
	if err != nil {
		t.Fatal(err)
	}
	compareExports(t, "first export", first, "warm re-export", again)
}
