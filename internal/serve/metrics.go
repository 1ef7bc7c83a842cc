package serve

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// latencyBuckets are the histogram upper bounds in seconds, spanning the
// sub-millisecond cached-session hits through multi-second Reddit-scale
// batched forwards.
var latencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// histogram is a fixed-bucket latency histogram. Observations and rendering
// are lock-free; the +Inf bucket lives at counts[len(bounds)].
type histogram struct {
	counts  []atomic.Int64
	sumNs   atomic.Int64
	samples atomic.Int64
}

func newHistogram() *histogram {
	return &histogram{counts: make([]atomic.Int64, len(latencyBuckets)+1)}
}

func (h *histogram) observe(d time.Duration) {
	s := d.Seconds()
	i := sort.SearchFloat64s(latencyBuckets, s)
	h.counts[i].Add(1)
	h.sumNs.Add(int64(d))
	h.samples.Add(1)
}

// sessionPrecision is one cached session's precision statistics, exposed as
// per-session gauges so operators can see what precision each cached
// session runs at (internal/quant.Plan footprint semantics: compression is
// bytes versus full float32, avgBytes the average bytes per weight element).
type sessionPrecision struct {
	precision   string
	compression float64
	avgBytes    float64
}

// Metrics holds the server's counters. All fields are safe for concurrent
// use; Render emits them in Prometheus text exposition format with
// deterministic ordering.
type Metrics struct {
	mu       sync.Mutex
	requests map[string]*atomic.Int64    // "endpoint|code" → count
	latency  map[string]*histogram       // endpoint → latency histogram
	sessions map[string]sessionPrecision // session key → precision gauges

	// Batches counts executed micro-batches; BatchedRequests counts the
	// requests they carried (ratio = mean batch size).
	Batches         atomic.Int64
	BatchedRequests atomic.Int64
	// QueueRejections counts 429s from the bounded admission queue.
	QueueRejections atomic.Int64
	// DegradedRequests counts sharded-path requests served by the local
	// single-process fallback because the worker pool was unavailable.
	DegradedRequests atomic.Int64
	// PanicsContained counts backend panics isolated into 500s.
	PanicsContained atomic.Int64
	// SessionsCreated and SessionsEvicted track the session cache.
	SessionsCreated atomic.Int64
	SessionsEvicted atomic.Int64
	// MutationBatches / MutationOps count accepted /v1/mutate batches and
	// the individual deltas they carried; MutationsRejected counts batches
	// refused (malformed input or mid-compaction 409s).
	MutationBatches   atomic.Int64
	MutationOps       atomic.Int64
	MutationsRejected atomic.Int64
	// DynRequests counts infer requests served from the dynamic graph;
	// SampledRequests counts fixed-fanout sampled infers (either source).
	DynRequests     atomic.Int64
	SampledRequests atomic.Int64
}

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics {
	return &Metrics{
		requests: make(map[string]*atomic.Int64),
		latency:  make(map[string]*histogram),
		sessions: make(map[string]sessionPrecision),
	}
}

// SetSessionPrecision registers (or refreshes) one cached session's
// precision gauges under its cache key.
func (m *Metrics) SetSessionPrecision(key, precision string, compression, avgBytes float64) {
	m.mu.Lock()
	m.sessions[key] = sessionPrecision{precision: precision, compression: compression, avgBytes: avgBytes}
	m.mu.Unlock()
}

// DeleteSessionPrecision drops an evicted session's gauges.
func (m *Metrics) DeleteSessionPrecision(key string) {
	m.mu.Lock()
	delete(m.sessions, key)
	m.mu.Unlock()
}

// ObserveRequest records one finished request: its endpoint, the HTTP status
// sent, and the wall time spent serving it.
func (m *Metrics) ObserveRequest(endpoint string, code int, d time.Duration) {
	key := fmt.Sprintf("%s|%d", endpoint, code)
	m.mu.Lock()
	c, ok := m.requests[key]
	if !ok {
		c = new(atomic.Int64)
		m.requests[key] = c
	}
	h, ok := m.latency[endpoint]
	if !ok {
		h = newHistogram()
		m.latency[endpoint] = h
	}
	m.mu.Unlock()
	c.Add(1)
	h.observe(d)
}

// ObserveBatch records one executed micro-batch of n requests.
func (m *Metrics) ObserveBatch(n int) {
	m.Batches.Add(1)
	m.BatchedRequests.Add(int64(n))
}

// RequestCount returns the number of requests finished with the given
// endpoint and status code (test and ops introspection).
func (m *Metrics) RequestCount(endpoint string, code int) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if c, ok := m.requests[fmt.Sprintf("%s|%d", endpoint, code)]; ok {
		return c.Load()
	}
	return 0
}

// Render writes the metrics in Prometheus text exposition format.
func (m *Metrics) Render(w io.Writer, liveSessions int) {
	m.mu.Lock()
	reqKeys := make([]string, 0, len(m.requests))
	for k := range m.requests {
		reqKeys = append(reqKeys, k)
	}
	latKeys := make([]string, 0, len(m.latency))
	for k := range m.latency {
		latKeys = append(latKeys, k)
	}
	m.mu.Unlock()
	sort.Strings(reqKeys)
	sort.Strings(latKeys)

	fmt.Fprintln(w, "# HELP scale_serve_requests_total Finished requests by endpoint and status code.")
	fmt.Fprintln(w, "# TYPE scale_serve_requests_total counter")
	for _, k := range reqKeys {
		endpoint, code, _ := strings.Cut(k, "|")
		m.mu.Lock()
		v := m.requests[k].Load()
		m.mu.Unlock()
		fmt.Fprintf(w, "scale_serve_requests_total{endpoint=%q,code=%q} %d\n", endpoint, code, v)
	}

	writeCounter(w, "scale_serve_batches_total", "Micro-batches executed.", m.Batches.Load())
	writeCounter(w, "scale_serve_batch_requests_total", "Requests carried by micro-batches.", m.BatchedRequests.Load())
	writeCounter(w, "scale_serve_queue_rejections_total", "Requests rejected by the admission queue (429).", m.QueueRejections.Load())
	writeCounter(w, "scale_serve_degraded_requests_total", "Sharded-path requests served by the local single-process fallback.", m.DegradedRequests.Load())
	writeCounter(w, "scale_serve_panics_contained_total", "Backend panics isolated into 500 responses.", m.PanicsContained.Load())
	writeCounter(w, "scale_serve_sessions_created_total", "Sessions constructed by the cache.", m.SessionsCreated.Load())
	writeCounter(w, "scale_serve_sessions_evicted_total", "Sessions evicted by the cache.", m.SessionsEvicted.Load())
	writeCounter(w, "scale_serve_mutation_batches_total", "Accepted /v1/mutate batches.", m.MutationBatches.Load())
	writeCounter(w, "scale_serve_mutation_ops_total", "Individual graph deltas applied via /v1/mutate.", m.MutationOps.Load())
	writeCounter(w, "scale_serve_mutations_rejected_total", "Mutation batches refused (bad input or mid-compaction).", m.MutationsRejected.Load())
	writeCounter(w, "scale_serve_dyn_requests_total", "Infer requests served from the dynamic graph.", m.DynRequests.Load())
	writeCounter(w, "scale_serve_sampled_requests_total", "Fixed-fanout sampled infer requests.", m.SampledRequests.Load())
	writeGauge(w, "scale_serve_sessions_live", "Sessions currently cached.", float64(liveSessions))

	m.mu.Lock()
	sessKeys := make([]string, 0, len(m.sessions))
	for k := range m.sessions {
		sessKeys = append(sessKeys, k)
	}
	sort.Strings(sessKeys)
	fmt.Fprintln(w, "# HELP scale_serve_session_quant_compression Weight-footprint ratio vs full float32 per cached session (1 = fp32, 0.25 = fully int8).")
	fmt.Fprintln(w, "# TYPE scale_serve_session_quant_compression gauge")
	for _, k := range sessKeys {
		sp := m.sessions[k]
		fmt.Fprintf(w, "scale_serve_session_quant_compression{session=%q,precision=%q} %g\n", k, sp.precision, sp.compression)
	}
	fmt.Fprintln(w, "# HELP scale_serve_session_quant_avg_bytes Average bytes per weight element per cached session.")
	fmt.Fprintln(w, "# TYPE scale_serve_session_quant_avg_bytes gauge")
	for _, k := range sessKeys {
		sp := m.sessions[k]
		fmt.Fprintf(w, "scale_serve_session_quant_avg_bytes{session=%q,precision=%q} %g\n", k, sp.precision, sp.avgBytes)
	}
	m.mu.Unlock()

	fmt.Fprintln(w, "# HELP scale_serve_request_seconds Request latency by endpoint.")
	fmt.Fprintln(w, "# TYPE scale_serve_request_seconds histogram")
	for _, endpoint := range latKeys {
		m.mu.Lock()
		h := m.latency[endpoint]
		m.mu.Unlock()
		var cum int64
		for i, bound := range latencyBuckets {
			cum += h.counts[i].Load()
			fmt.Fprintf(w, "scale_serve_request_seconds_bucket{endpoint=%q,le=\"%g\"} %d\n", endpoint, bound, cum)
		}
		cum += h.counts[len(latencyBuckets)].Load()
		fmt.Fprintf(w, "scale_serve_request_seconds_bucket{endpoint=%q,le=\"+Inf\"} %d\n", endpoint, cum)
		fmt.Fprintf(w, "scale_serve_request_seconds_sum{endpoint=%q} %g\n", endpoint, float64(h.sumNs.Load())/1e9)
		fmt.Fprintf(w, "scale_serve_request_seconds_count{endpoint=%q} %d\n", endpoint, h.samples.Load())
	}
}

// writeCounter renders one unlabelled counter with its HELP and TYPE lines.
func writeCounter(w io.Writer, name, help string, v int64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
}

// writeGauge renders one unlabelled gauge with its HELP and TYPE lines.
func writeGauge(w io.Writer, name, help string, v float64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
}
