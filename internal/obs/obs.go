// Package obs is the one metrics registry of the serving tiers: counters,
// gauges and latency histograms with fixed label sets, counter and gauge
// callbacks read at render time, and the one Prometheus text renderer.
// Every /metrics page is a Registry, so the exposition format and the
// naming rules live here and nowhere else.
//
// Registration panics on a malformed family, a programming error: a name
// must match [a-zA-Z_:][a-zA-Z0-9_:]* and be new to its registry, HELP must
// be one non-empty line, counters must end in _total, histograms (which
// measure time) in _seconds, gauges not in _total, and label names must be
// distinct identifiers other than "le". Families render in registration
// order, labelled series sorted by label values; integer series in decimal,
// float gauges and histogram sums in fmt's %g form.
package obs

import (
	"fmt"
	"math"
	"net/http"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing integer series.
type Counter struct{ v atomic.Int64 }

// Add adds n; Load reads the value.
func (c *Counter) Add(n int64) { c.v.Add(n) }
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is a float series that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v; Load reads it.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }
func (g *Gauge) Load() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts durations into fixed buckets (+Inf last).
type Histogram struct {
	bounds         []float64
	counts         []atomic.Int64
	sumNs, samples atomic.Int64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	h.counts[sort.SearchFloat64s(h.bounds, d.Seconds())].Add(1)
	h.sumNs.Add(int64(d))
	h.samples.Add(1)
}

// Vec is a labelled family's series, one per tuple of label values.
type Vec[T any] struct {
	n      int // label count
	mk     func() *T
	mu     sync.Mutex
	series map[string]*series[T]
}

type series[T any] struct {
	values []string
	m      *T
}

// With returns the series for the label values, creating it on first use.
func (v *Vec[T]) With(values ...string) *T { return v.lookup(values, true) }

// Get returns the series for the label values, or nil; it adds none.
func (v *Vec[T]) Get(values ...string) *T { return v.lookup(values, false) }

// Delete drops the series for the label values.
func (v *Vec[T]) Delete(values ...string) {
	k := v.key(values)
	v.mu.Lock()
	delete(v.series, k)
	v.mu.Unlock()
}

func (v *Vec[T]) key(values []string) string {
	if len(values) != v.n {
		panic(fmt.Sprintf("obs: %d label values for %d labels", len(values), v.n)) // lint:allow-panic
	}
	return strings.Join(values, "\x00")
}

func (v *Vec[T]) lookup(values []string, create bool) *T {
	k := v.key(values)
	v.mu.Lock()
	defer v.mu.Unlock()
	s, ok := v.series[k]
	if !ok {
		if !create {
			return nil
		}
		s = &series[T]{values: slices.Clone(values), m: v.mk()}
		v.series[k] = s
	}
	return s.m
}

// Registry is one /metrics page. Register at construction; rendering is
// safe concurrently with updates.
type Registry struct {
	mu    sync.Mutex
	fams  []func(b []byte) []byte
	names map[string]bool
}

// NewRegistry returns an empty page.
func NewRegistry() *Registry { return &Registry{names: make(map[string]bool)} }

var (
	nameRE  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelRE = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// add registers one family after checking the naming rules.
func (r *Registry) add(name, help, typ string, labels []string, samples func(b []byte) []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	suffix := map[string]string{"counter": "_total", "histogram": "_seconds"}[typ]
	ok := nameRE.MatchString(name) && !r.names[name] &&
		strings.TrimSpace(help) != "" && !strings.ContainsAny(help, "\n\\") &&
		strings.HasSuffix(name, suffix) && !(typ == "gauge" && strings.HasSuffix(name, "_total"))
	for i, l := range labels {
		ok = ok && labelRE.MatchString(l) && l != "le" && !slices.Contains(labels[:i], l)
	}
	if !ok {
		panic(fmt.Sprintf("obs: malformed or duplicate %s %q (help %q, labels %v)", typ, name, help, labels)) // lint:allow-panic
	}
	r.names[name] = true
	r.fams = append(r.fams, func(b []byte) []byte {
		return samples(fmt.Appendf(b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ))
	})
}

// Include renders sub's families, as they stand at render time, at this
// point of r's page. Names are checked within each registry; a clash across
// registries shows up when the rendered page is linted.
func (r *Registry) Include(sub *Registry) {
	r.mu.Lock()
	r.fams = append(r.fams, sub.appendText)
	r.mu.Unlock()
}

// Counter registers an unlabelled counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := new(Counter)
	r.CounterFunc(name, help, c.Load)
	return c
}

// CounterFunc registers a counter read from fn at render time.
func (r *Registry) CounterFunc(name, help string, fn func() int64) {
	r.add(name, help, "counter", nil, func(b []byte) []byte {
		return appendInt(appendSeries(b, name, nil, nil, ""), fn())
	})
}

// IntGaugeFunc registers an integer gauge read from fn at render time.
func (r *Registry) IntGaugeFunc(name, help string, fn func() int64) {
	r.add(name, help, "gauge", nil, func(b []byte) []byte {
		return appendInt(appendSeries(b, name, nil, nil, ""), fn())
	})
}

// Gauge registers an unlabelled float gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := new(Gauge)
	r.GaugeFunc(name, help, g.Load)
	return g
}

// GaugeFunc registers a float gauge read from fn at render time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.add(name, help, "gauge", nil, func(b []byte) []byte {
		return appendFloat(appendSeries(b, name, nil, nil, ""), fn())
	})
}

// CounterVec registers a counter with the given label names.
func (r *Registry) CounterVec(name, help string, labels ...string) *Vec[Counter] {
	return addVec(r, name, help, "counter", labels, func() *Counter { return new(Counter) },
		func(b []byte, values []string, c *Counter) []byte {
			return appendInt(appendSeries(b, name, labels, values, ""), c.Load())
		})
}

// GaugeVec registers a float gauge with the given label names.
func (r *Registry) GaugeVec(name, help string, labels ...string) *Vec[Gauge] {
	return addVec(r, name, help, "gauge", labels, func() *Gauge { return new(Gauge) },
		func(b []byte, values []string, g *Gauge) []byte {
			return appendFloat(appendSeries(b, name, labels, values, ""), g.Load())
		})
}

// HistogramVec registers a latency histogram over ascending bucket bounds
// in seconds.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *Vec[Histogram] {
	if !sort.Float64sAreSorted(bounds) {
		panic(fmt.Sprintf("obs: histogram %s buckets are not ascending", name)) // lint:allow-panic
	}
	les := make([]string, 0, len(bounds)+1)
	for _, bound := range bounds {
		les = append(les, strconv.FormatFloat(bound, 'g', -1, 64))
	}
	les = append(les, "+Inf")
	return addVec(r, name, help, "histogram", labels,
		func() *Histogram { return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(les))} },
		func(b []byte, values []string, h *Histogram) []byte {
			var cum int64
			for i, le := range les {
				cum += h.counts[i].Load()
				b = appendInt(appendSeries(b, name+"_bucket", labels, values, le), cum)
			}
			b = appendFloat(appendSeries(b, name+"_sum", labels, values, ""), float64(h.sumNs.Load())/1e9)
			return appendInt(appendSeries(b, name+"_count", labels, values, ""), h.samples.Load())
		})
}

// addVec registers a labelled family whose series sample renders, sorted by
// label values.
func addVec[T any](r *Registry, name, help, typ string, labels []string,
	mk func() *T, sample func(b []byte, values []string, m *T) []byte) *Vec[T] {
	v := &Vec[T]{n: len(labels), mk: mk, series: make(map[string]*series[T])}
	r.add(name, help, typ, labels, func(b []byte) []byte {
		v.mu.Lock()
		all := make([]*series[T], 0, len(v.series))
		for _, s := range v.series {
			all = append(all, s)
		}
		v.mu.Unlock()
		slices.SortFunc(all, func(x, y *series[T]) int { return slices.Compare(x.values, y.values) })
		for _, s := range all {
			b = sample(b, s.values, s.m)
		}
		return b
	})
	return v
}

// appendText appends the page in Prometheus text exposition format.
func (r *Registry) appendText(b []byte) []byte {
	r.mu.Lock()
	fams := r.fams
	r.mu.Unlock()
	for _, f := range fams {
		b = f(b)
	}
	return b
}

// ServeHTTP serves the page.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_, _ = w.Write(r.appendText(nil)) // the scraper is gone if this fails
}

var escaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// appendSeries appends a sample's name, labels (le last, when set) and the space
// before its value.
func appendSeries(b []byte, name string, labels, values []string, le string) []byte {
	b = append(b, name...)
	if le != "" {
		labels, values = append(slices.Clip(labels), "le"), append(slices.Clip(values), le)
	}
	for i, l := range labels {
		sep := ","
		if i == 0 {
			sep = "{"
		}
		b = fmt.Appendf(b, `%s%s="%s"`, sep, l, escaper.Replace(values[i]))
	}
	if len(labels) > 0 {
		b = append(b, '}')
	}
	return append(b, ' ')
}

func appendInt(b []byte, v int64) []byte {
	return append(strconv.AppendInt(b, v, 10), '\n')
}

func appendFloat(b []byte, v float64) []byte {
	return append(strconv.AppendFloat(b, v, 'g', -1, 64), '\n')
}
