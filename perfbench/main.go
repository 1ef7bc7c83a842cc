// Command perfbench is the repository's benchmark: it drives a front
// scale-serve and two scale-shard workers, each a separate process, with
// one of four seeded workloads and prints the end-to-end metrics; with
// -trace 1 it instead replays the same inputs in-process through the
// layers' public functions and prints per-layer metrics from spans.
//
// Run it from the repository root through run.sh, which builds the servers
// and this program first:
//
//	bash perfbench/run.sh --workload infer-small --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"sync/atomic"
	"time"
)

func main() { os.Exit(run()) }

// metric is one named value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSpec declares one printed metric; BENCHMARK.json lists the same.
type metricSpec struct{ name, unit, better string }

// endToEnd lists the metrics a served run prints. Tail latency is printed
// on standard error only: host CPU steal moves it by more than the largest
// bound a metric may have, 25 % (see README.md).
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"p50_ms", "ms", "lower"},
	{"goodput_rps", "1/s", "higher"},
	{"cpu_ms_per_req", "ms", "lower"},
	{"rss_mb", "MB", "lower"},
}

// report is the result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload: "+fmt.Sprint(workloadNames))
		seed    = fs.Int64("seed", 1, "input seed: the same seed generates byte-identical requests")
		seconds = fs.Int("seconds", 25, "measured load duration")
		trace   = fs.Int("trace", 0, "0: served run, end-to-end metrics; 1: traced in-process replay, per-layer metrics")
		binDir  = fs.String("bin", "", "directory holding the scale-serve and scale-shard binaries")
		outDir  = fs.String("out", "", "directory for span dumps")
	)
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	if !slices.Contains(workloadNames, *name) || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload in %v, -seconds ≥ 1, -trace 0|1\n", workloadNames)
		return 2
	}
	var rep *report
	var err error
	if *trace == 1 {
		rep, err = runTraced(*name, *seed, float64(*seconds), *outDir)
	} else {
		if *binDir == "" {
			fmt.Fprintln(os.Stderr, "perfbench: -bin is required for a served run")
			return 2
		}
		rep, err = runServed(*name, *seed, float64(*seconds), *binDir)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// A served run brings the deployment up setupBefore times before the load
// (the last one carries it) and setupAfter times after it; setup_s is the
// median of all, so a burst on the host during one stretch of set-ups
// cannot move it alone.
const (
	setupBefore = 8
	setupAfter  = 7
)

// lateBound rejects a run whose load generator itself fell behind: above
// it, the offered rate was not the rate the benchmark claims.
const lateBound = 50 * time.Millisecond

// reqTimeout bounds one request; a timeout counts as a failed operation.
const reqTimeout = 30 * time.Second

// setUp starts a deployment and sends the probe until it is answered
// correctly, returning the seconds from spawning to that answer.
func setUp(binDir string, probe *op) (*deployment, float64, error) {
	t0 := time.Now()
	d, err := startDeployment(binDir)
	if err != nil {
		return nil, 0, err
	}
	var dials atomic.Int64
	ss, err := newHTTPSenders(1, d.front, reqTimeout, &dials)
	if err != nil {
		d.stop()
		return nil, 0, err
	}
	defer ss[0].(*httpSender).close()
	for {
		_, err := execute(ss[0], probe)
		if err == nil {
			return d, time.Since(t0).Seconds(), nil
		}
		if errors.Is(err, errMismatch) || time.Since(t0) > 60*time.Second {
			log := d.logText()
			d.stop()
			return nil, 0, fmt.Errorf("set-up probe: %v\n%s", err, log)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func runServed(name string, seed int64, seconds float64, binDir string) (*report, error) {
	sim, err := newSim()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	w, err := buildWorkload(name, seed, seconds, sim, nil)
	if err != nil {
		return nil, err
	}
	var bodies, nops int
	for _, st := range w.open {
		for _, o := range st.ops {
			bodies, nops = bodies+len(o.body), nops+1
		}
	}
	for _, seq := range w.closed {
		for _, o := range seq {
			bodies, nops = bodies+len(o.body), nops+1
		}
	}
	fmt.Fprintf(os.Stderr, "%s seed=%d: %d requests (mean body %d B) and expected outputs ready in %.2f s\n",
		name, seed, nops, bodies/max(nops, 1), time.Since(t0).Seconds())
	// Collect the generated inputs' garbage now, so that no collection of
	// this process competes with the servers during set-up or the run.
	runtime.GC()
	var setups []float64
	setUpN := func(n int) (*deployment, error) {
		var last *deployment
		for i := 0; i < n; i++ {
			if last != nil {
				last.stop()
			}
			dd, secs, err := setUp(binDir, w.probe)
			if err != nil {
				return nil, err
			}
			setups = append(setups, secs)
			last = dd
		}
		return last, nil
	}
	d, err := setUpN(setupBefore)
	if err != nil {
		return nil, err
	}
	defer d.stop()

	var dials atomic.Int64
	conns := 0
	if w.closed != nil {
		conns = len(w.closed)
	}
	for _, st := range w.open {
		conns += st.conns
	}
	if conns > maxConns {
		return nil, fmt.Errorf("workload needs %d connections, the cap is %d", conns, maxConns)
	}
	var all []sender
	newSenders := func(n int) ([]sender, error) {
		ss, err := newHTTPSenders(n, d.front, reqTimeout, &dials)
		all = append(all, ss...)
		return ss, err
	}
	defer func() {
		for _, s := range all {
			s.(*httpSender).close()
		}
	}()

	cpu0, err := d.cpuTicks()
	if err != nil {
		return nil, err
	}
	steal0, total0 := hostSteal()
	start := time.Now()
	var results []result
	if w.closed != nil {
		ss, err := newSenders(len(w.closed))
		if err != nil {
			return nil, err
		}
		results = runClosed(start, w.closed, ss, time.Duration(seconds*float64(time.Second)))
	} else {
		streams := make([]stream, len(w.open))
		for i, st := range w.open {
			ss, err := newSenders(st.conns)
			if err != nil {
				return nil, err
			}
			streams[i] = stream{ops: st.ops, at: st.at, senders: ss}
		}
		results = runOpen(start, streams)
	}
	cpu1, err := d.cpuTicks()
	if err != nil {
		return nil, err
	}
	steal1, total1 := hostSteal()
	var final []result
	if w.final != nil {
		final = w.final(all[0])
	}
	rss, err := d.peakRSSMB()
	if err != nil {
		return nil, err
	}
	if dials.Load() > int64(conns) {
		fmt.Fprintf(os.Stderr, "perfbench: %d dials for %d connections (the server closed some)\n", dials.Load(), conns)
	}
	d.stop()
	after, err := setUpN(setupAfter)
	if err != nil {
		return nil, err
	}
	after.stop()

	sum := summarize(w, results)
	rep := sum.report(name, final)
	cpuMS := float64(cpu1-cpu0) * 1000 / clockTick
	rep.Metrics["setup_s"] = metric{median(setups), "s"}
	rep.Metrics["cpu_ms_per_req"] = metric{cpuMS / float64(max(sum.ok, 1)), "ms"}
	rep.Metrics["rss_mb"] = metric{rss, "MB"}
	fmt.Fprintf(os.Stderr, "%s seed=%d: set-ups %.3v s; server CPU %.0f ms; peak RSS %.1f MB; host steal %.1f%% of CPU time\n",
		name, seed, setups, cpuMS, rss, 100*float64(steal1-steal0)/float64(max(total1-total0, 1)))
	if sum.lateP99 > lateBound {
		return nil, fmt.Errorf("load generator ran late: p99 lateness %v exceeds %v", sum.lateP99, lateBound)
	}
	return rep, nil
}

// summary is the arithmetic over one run's results.
type summary struct {
	sent, ok, mismatches int
	p50, tail            float64 // ms, over classRead
	tailPM               int
	goodput              float64 // ok within the limit, per second
	window               time.Duration
	lateP50, lateP99     time.Duration
	writes               []float64 // sorted write latencies, ms
}

// latencies returns the sorted latencies (ms) of one class; a failed op
// counts as late as the request timeout, so failures can only raise a
// percentile.
func latencies(results []result, class int) []float64 {
	var out []float64
	for _, r := range results {
		if r.op.class != class {
			continue
		}
		if r.ok() {
			out = append(out, ms(r.latency()))
		} else {
			out = append(out, ms(reqTimeout))
		}
	}
	sort.Float64s(out)
	return out
}

func summarize(w *workload, results []result) summary {
	s := summary{sent: len(results)}
	var late []float64
	for _, r := range results {
		s.window = max(s.window, r.done)
		late = append(late, float64(r.late))
		switch {
		case r.ok():
			s.ok++
			if r.latency() <= w.limit {
				s.goodput++
			}
		case r.mismatch():
			s.mismatches++
		}
	}
	if s.window > 0 {
		s.goodput /= s.window.Seconds()
	}
	sort.Float64s(late)
	s.lateP50 = time.Duration(percentile(late, 500))
	s.lateP99 = time.Duration(percentile(late, 990))

	reads := latencies(results, classRead)
	s.tailPM = w.tailPM
	if len(reads)-rankOf(s.tailPM, len(reads)) < minBeyond {
		s.tailPM, _ = tailPerMille(len(reads))
	}
	s.p50 = percentile(reads, 500)
	s.tail = percentile(reads, s.tailPM)
	s.writes = latencies(results, classWrite)
	return s
}

// report prints the run's counts and latencies on standard error and
// returns the result line; final holds the quiesced checks, which count as
// operations but not as latency samples.
func (s summary) report(name string, final []result) *report {
	sent, ok, mism := s.sent, s.ok, s.mismatches
	for _, r := range final {
		sent++
		switch {
		case r.ok():
			ok++
		case r.mismatch():
			mism++
		}
		if !r.ok() {
			fmt.Fprintf(os.Stderr, "perfbench: quiesced check failed: %v\n", r.err)
		}
	}
	reads := s.sent - len(s.writes)
	fmt.Fprintf(os.Stderr, "%s: sent=%d ok=%d failed=%d (output mismatches %d)\n", name, sent, ok, sent-ok, mism)
	fmt.Fprintf(os.Stderr, "%s: reads=%d p50=%.3f ms p%g=%.3f ms over %.2f s; generator lateness p50 %v p99 %v\n",
		name, reads, s.p50, float64(s.tailPM)/10, s.tail, s.window.Seconds(), s.lateP50, s.lateP99)
	if n := len(s.writes); n > 0 {
		pm, _ := tailPerMille(n)
		fmt.Fprintf(os.Stderr, "%s: writes=%d write p50=%.3f ms write p%g=%.3f ms\n",
			name, n, percentile(s.writes, 500), float64(pm)/10, percentile(s.writes, pm))
	}
	return &report{
		Correct:   mism == 0,
		Attempted: sent,
		Failed:    sent - ok,
		Metrics: map[string]metric{
			"p50_ms":      {s.p50, "ms"},
			"goodput_rps": {s.goodput, "1/s"},
		},
	}
}
