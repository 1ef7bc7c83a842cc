package obs

import (
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// The renderer's bytes for every kind of family: registration order,
// HELP/TYPE pairs, sorted label values, %d integers and %g floats, and
// cumulative histogram buckets with le last.
func TestRender(t *testing.T) {
	r := NewRegistry()
	reqs := r.CounterVec("x_requests_total", "Requests.", "endpoint", "code")
	c := r.Counter("x_batches_total", "Batches.")
	g := r.Gauge("x_live", "Live.")
	gv := r.GaugeVec("x_ratio", "Ratio.", "session")
	r.IntGaugeFunc("x_workers", "Workers.", func() int64 { return 1234567 })
	r.GaugeFunc("x_rate", "Rate.", func() float64 { return 1234567 })
	r.CounterFunc("x_trips_total", "Trips.", func() int64 { return 3 })
	h := r.HistogramVec("x_request_seconds", "Latency.", []float64{0.001, 0.5}, "endpoint")

	reqs.With("simulate", "200").Add(1)
	reqs.With("infer", "400").Add(2)
	reqs.With("infer", "200").Add(5)
	c.Add(7)
	g.Set(3)
	gv.With(`a"b\c`).Set(0.25)
	gv.With("gone").Set(1)
	gv.Delete("gone")
	h.With("infer").Observe(2 * time.Millisecond)
	h.With("infer").Observe(2 * time.Second)

	want := `# HELP x_requests_total Requests.
# TYPE x_requests_total counter
x_requests_total{endpoint="infer",code="200"} 5
x_requests_total{endpoint="infer",code="400"} 2
x_requests_total{endpoint="simulate",code="200"} 1
# HELP x_batches_total Batches.
# TYPE x_batches_total counter
x_batches_total 7
# HELP x_live Live.
# TYPE x_live gauge
x_live 3
# HELP x_ratio Ratio.
# TYPE x_ratio gauge
x_ratio{session="a\"b\\c"} 0.25
# HELP x_workers Workers.
# TYPE x_workers gauge
x_workers 1234567
# HELP x_rate Rate.
# TYPE x_rate gauge
x_rate 1.234567e+06
# HELP x_trips_total Trips.
# TYPE x_trips_total counter
x_trips_total 3
# HELP x_request_seconds Latency.
# TYPE x_request_seconds histogram
x_request_seconds_bucket{endpoint="infer",le="0.001"} 0
x_request_seconds_bucket{endpoint="infer",le="0.5"} 1
x_request_seconds_bucket{endpoint="infer",le="+Inf"} 2
x_request_seconds_sum{endpoint="infer"} 2.002
x_request_seconds_count{endpoint="infer"} 2
`
	if got := string(r.appendText(nil)); got != want {
		t.Fatalf("page:\n%s\nwant:\n%s", got, want)
	}
	if reqs.Get("infer", "200").Load() != 5 || reqs.Get("mutate", "200") != nil {
		t.Fatal("Get must find existing series and never create one")
	}
	if strings.Contains(string(r.appendText(nil)), "mutate") {
		t.Fatal("Get added a series to the page")
	}
}

// An included registry renders at its point of the page, live.
func TestInclude(t *testing.T) {
	sub := NewRegistry()
	n := sub.Counter("b_total", "B.")
	r := NewRegistry()
	r.Counter("a_total", "A.")
	r.Include(sub)
	r.IntGaugeFunc("c", "C.", func() int64 { return 1 })
	n.Add(4)
	want := "# HELP a_total A.\n# TYPE a_total counter\na_total 0\n" +
		"# HELP b_total B.\n# TYPE b_total counter\nb_total 4\n" +
		"# HELP c C.\n# TYPE c gauge\nc 1\n"
	if got := string(r.appendText(nil)); got != want {
		t.Fatalf("page:\n%s\nwant:\n%s", got, want)
	}
	rec := httptest.NewRecorder()
	r.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Body.String() != want || rec.Header().Get("Content-Type") != "text/plain; version=0.0.4" {
		t.Fatalf("ServeHTTP: %q %q", rec.Header().Get("Content-Type"), rec.Body.String())
	}
}

func refuses(t *testing.T, what string, register func(r *Registry)) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: registration accepted a malformed family", what)
		}
	}()
	r := NewRegistry()
	r.Counter("taken_total", "Taken.")
	register(r)
}

// Registration refuses every family that breaks the naming rules.
func TestRegistrationRefusesMalformed(t *testing.T) {
	refuses(t, "empty HELP", func(r *Registry) { r.Counter("a_total", " ") })
	refuses(t, "multi-line HELP", func(r *Registry) { r.Gauge("a", "one\ntwo") })
	refuses(t, "counter without _total", func(r *Registry) { r.Counter("a_count", "A.") })
	refuses(t, "counter func without _total", func(r *Registry) { r.CounterFunc("a", "A.", func() int64 { return 0 }) })
	refuses(t, "histogram without _seconds", func(r *Registry) { r.HistogramVec("a_ms", "A.", []float64{1}) })
	refuses(t, "gauge ending in _total", func(r *Registry) { r.Gauge("a_total", "A.") })
	refuses(t, "malformed name", func(r *Registry) { r.Gauge("a-b", "A.") })
	refuses(t, "reserved label", func(r *Registry) { r.GaugeVec("a", "A.", "le") })
	refuses(t, "repeated label", func(r *Registry) { r.CounterVec("a_total", "A.", "x", "x") })
	refuses(t, "malformed label", func(r *Registry) { r.CounterVec("a_total", "A.", "1x") })
	refuses(t, "unsorted buckets", func(r *Registry) { r.HistogramVec("a_seconds", "A.", []float64{1, 0.5}) })
	refuses(t, "duplicate name", func(r *Registry) { r.Counter("taken_total", "Again.") })
	refuses(t, "wrong label count", func(r *Registry) { r.CounterVec("a_total", "A.", "x").With("1", "2") })
}

func TestGaugeBits(t *testing.T) {
	var g Gauge
	for _, v := range []float64{0, -1.5, math.Inf(1), 1e300} {
		if g.Set(v); g.Load() != v {
			t.Fatalf("Set(%v) then Load = %v", v, g.Load())
		}
	}
}

// Series are created, updated and deleted while the page renders.
func TestConcurrentUpdatesAndRender(t *testing.T) {
	r := NewRegistry()
	reqs := r.CounterVec("c_total", "C.", "code")
	g := r.GaugeVec("g", "G.", "k")
	h := r.HistogramVec("h_seconds", "H.", []float64{0.1}, "endpoint")
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				reqs.With(strconv.Itoa(i % 3)).Add(1)
				g.With(strconv.Itoa(w)).Set(float64(i))
				h.With("infer").Observe(time.Millisecond)
				if i%10 == 0 {
					g.Delete(strconv.Itoa(w))
				}
				_ = r.appendText(nil)
			}
		}(w)
	}
	wg.Wait()
	var sum int64
	for _, code := range []string{"0", "1", "2"} {
		sum += reqs.Get(code).Load()
	}
	if sum != 800 || h.Get("infer").samples.Load() != 800 {
		t.Fatalf("lost updates: counter sum %d, histogram count %d", sum, h.Get("infer").samples.Load())
	}
}
