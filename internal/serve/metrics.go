package serve

import (
	"strconv"
	"time"

	"scale"
	"scale/internal/obs"
)

// latencyBuckets are the histogram upper bounds in seconds, spanning the
// sub-millisecond cached-session hits through multi-second Reddit-scale
// batched forwards.
var latencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Metrics holds the server's series on its /metrics registry. All fields
// are safe for concurrent use.
type Metrics struct {
	reg      *obs.Registry
	requests *obs.Vec[obs.Counter] // endpoint, code

	Batches           *obs.Counter
	BatchedRequests   *obs.Counter
	QueueRejections   *obs.Counter
	DegradedRequests  *obs.Counter
	PanicsContained   *obs.Counter
	SessionsCreated   *obs.Counter
	SessionsEvicted   *obs.Counter
	MutationBatches   *obs.Counter
	MutationOps       *obs.Counter
	MutationsRejected *obs.Counter
	DynRequests       *obs.Counter
	SampledRequests   *obs.Counter

	sessionsLive     *obs.Gauge
	quantCompression *obs.Vec[obs.Gauge] // session, precision
	quantAvgBytes    *obs.Vec[obs.Gauge] // session, precision
	latency          *obs.Vec[obs.Histogram]
}

// NewMetrics returns the server's series, registered in page order on a
// new registry.
func NewMetrics() *Metrics {
	r := obs.NewRegistry()
	return &Metrics{
		reg:               r,
		requests:          r.CounterVec("scale_serve_requests_total", "Finished requests by endpoint and status code.", "endpoint", "code"),
		Batches:           r.Counter("scale_serve_batches_total", "Micro-batches executed."),
		BatchedRequests:   r.Counter("scale_serve_batch_requests_total", "Requests carried by micro-batches."),
		QueueRejections:   r.Counter("scale_serve_queue_rejections_total", "Requests rejected by the admission queue (429)."),
		DegradedRequests:  r.Counter("scale_serve_degraded_requests_total", "Sharded-path requests served by the local single-process fallback."),
		PanicsContained:   r.Counter("scale_serve_panics_contained_total", "Backend panics isolated into 500 responses."),
		SessionsCreated:   r.Counter("scale_serve_sessions_created_total", "Sessions constructed by the cache."),
		SessionsEvicted:   r.Counter("scale_serve_sessions_evicted_total", "Sessions evicted by the cache."),
		MutationBatches:   r.Counter("scale_serve_mutation_batches_total", "Accepted /v1/mutate batches."),
		MutationOps:       r.Counter("scale_serve_mutation_ops_total", "Individual graph deltas applied via /v1/mutate."),
		MutationsRejected: r.Counter("scale_serve_mutations_rejected_total", "Mutation batches refused (bad input or mid-compaction)."),
		DynRequests:       r.Counter("scale_serve_dyn_requests_total", "Infer requests served from the dynamic graph."),
		SampledRequests:   r.Counter("scale_serve_sampled_requests_total", "Fixed-fanout sampled infer requests."),
		sessionsLive:      r.Gauge("scale_serve_sessions_live", "Sessions currently cached."),
		quantCompression:  r.GaugeVec("scale_serve_session_quant_compression", "Weight-footprint ratio vs full float32 per cached session (1 = fp32, 0.25 = fully int8).", "session", "precision"),
		quantAvgBytes:     r.GaugeVec("scale_serve_session_quant_avg_bytes", "Average bytes per weight element per cached session.", "session", "precision"),
		latency:           r.HistogramVec("scale_serve_request_seconds", "Request latency by endpoint.", latencyBuckets, "endpoint"),
	}
}

// sessionCached records a session entering the cache: its precision gauges
// (internal/quant.Plan footprint semantics) and the live-session count.
func (m *Metrics) sessionCached(key string, sess *scale.Session, live int) {
	m.SessionsCreated.Add(1)
	compression, avgBytes := sess.PrecisionStats()
	m.quantCompression.With(key, sess.Precision()).Set(compression)
	m.quantAvgBytes.With(key, sess.Precision()).Set(avgBytes)
	m.sessionsLive.Set(float64(live))
}

// sessionDropped removes an evicted or closed session's gauges.
func (m *Metrics) sessionDropped(key string, sess *scale.Session, live int) {
	m.quantCompression.Delete(key, sess.Precision())
	m.quantAvgBytes.Delete(key, sess.Precision())
	m.sessionsLive.Set(float64(live))
}

// ObserveRequest records one finished request: its endpoint, the HTTP status
// sent, and the wall time spent serving it.
func (m *Metrics) ObserveRequest(endpoint string, code int, d time.Duration) {
	m.requests.With(endpoint, strconv.Itoa(code)).Add(1)
	m.latency.With(endpoint).Observe(d)
}

// ObserveBatch records one executed micro-batch of n requests.
func (m *Metrics) ObserveBatch(n int) {
	m.Batches.Add(1)
	m.BatchedRequests.Add(int64(n))
}

// RequestCount returns the number of requests finished with the given
// endpoint and status code (test and ops introspection).
func (m *Metrics) RequestCount(endpoint string, code int) int64 {
	if c := m.requests.Get(endpoint, strconv.Itoa(code)); c != nil {
		return c.Load()
	}
	return 0
}
