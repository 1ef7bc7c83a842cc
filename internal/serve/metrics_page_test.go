package serve

import (
	"bufio"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"scale"
	"scale/internal/dyn"
	"scale/internal/shard"
)

var updateGolden = flag.Bool("update", false, "rewrite the /metrics golden pages under testdata")

// handlerTransport routes a client's requests straight into in-process
// handlers keyed by host name. Worker addresses are then fixed strings, so
// the pool's consistent-hash ring places shards the same way on every run
// (httptest servers get random ports, which would move shards between
// workers).
type handlerTransport map[string]http.Handler

func (t handlerTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	h, ok := t[r.URL.Host]
	if !ok {
		return nil, fmt.Errorf("no in-process worker %q", r.URL.Host)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, r)
	if r.Body != nil {
		r.Body.Close()
	}
	return rec.Result(), nil
}

// metricsFixture is a front with a dynamic graph and a 2-worker in-process
// pool, after a fixed request script, plus its two workers.
type metricsFixture struct {
	front   *Server
	workers []*shard.Worker
}

func ringBody(n, dim int) map[string]any {
	edges := make([][2]int, n)
	feats := make([][]float32, n)
	for i := range edges {
		edges[i] = [2]int{i, (i + 1) % n}
		row := make([]float32, dim)
		for j := range row {
			row[j] = float32((i*7+j)%13) * 0.1
		}
		feats[i] = row
	}
	return map[string]any{"model": "gcn", "dims": []int{dim, 4, 3}, "num_vertices": n, "edges": edges, "features": feats}
}

func newMetricsFixture(t *testing.T) *metricsFixture {
	t.Helper()
	sim, err := scale.New(scale.Options{})
	if err != nil {
		t.Fatal(err)
	}
	f := &metricsFixture{}
	rt := handlerTransport{}
	var addrs []string
	for _, host := range []string{"w1", "w2"} {
		w := shard.NewWorker(shard.WorkerConfig{Sim: sim})
		t.Cleanup(w.Close)
		f.workers = append(f.workers, w)
		rt[host] = w.Handler()
		addrs = append(addrs, host)
	}
	pool, err := shard.NewPool(shard.PoolConfig{Workers: addrs, Parts: 2, Client: &http.Client{Transport: rt}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pool.Close)
	f.front = newTestServer(t, Config{
		Sim:              sim,
		ShardPool:        pool,
		ShardMinVertices: 30,
		Dynamic:          newDynGraph(t, dyn.Config{}),
	})

	dynInfer := map[string]any{"model": "gcn", "dims": []int{8, 16, 4}, "graph": "dynamic"}
	sampled := map[string]any{"model": "gcn", "dims": []int{8, 16, 4}, "graph": "dynamic", "sample_fanout": 3, "sample_seed": 42}
	int8Infer := validInfer()
	int8Infer.Precision = "int8"
	script := []struct {
		method, path string
		body         any
		code         int
	}{
		{"POST", "/v1/infer", validInfer(), 200},
		{"POST", "/v1/infer", int8Infer, 200},
		{"POST", "/v1/infer", "{not json", 400},
		{"POST", "/v1/infer", ringBody(40, 6), 200},
		{"POST", "/v1/infer", ringBody(40, 6), 200},
		{"POST", "/v1/infer", dynInfer, 200},
		{"POST", "/v1/mutate", `{"ops":[{"op":"add_edge","src":1,"dst":101},{"op":"add_edge","src":21,"dst":51}]}`, 200},
		{"POST", "/v1/mutate", `{"ops":[{"op":"remove_edge","src":1,"dst":101}]}`, 200},
		{"POST", "/v1/mutate", `{"ops":[{"op":"add_edge","src":1,"dst":999}]}`, 400},
		{"POST", "/v1/infer", dynInfer, 200},
		{"POST", "/v1/infer", sampled, 200},
		{"POST", "/v1/simulate", `{"model":"gcn","dataset":"cora"}`, 200},
		{"GET", "/v1/infer", nil, 405},
	}
	for i, step := range script {
		rec := do(t, f.front, step.method, step.path, step.body)
		if rec.Code != step.code {
			t.Fatalf("script step %d (%s %s): status %d, want %d: %s", i, step.method, step.path, rec.Code, step.code, rec.Body)
		}
	}
	return f
}

func metricsPage(t *testing.T, h http.Handler) string {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics: status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4" {
		t.Fatalf("/metrics Content-Type %q", ct)
	}
	return rec.Body.String()
}

// timingSample matches the histogram lines whose values depend on how long
// requests took: bucket counts and sums. _count lines stay pinned.
var timingSample = regexp.MustCompile(`(?m)^(\S+_seconds_(?:bucket|sum)(?:\{[^}]*\})?) \S+$`)

// TestMetricsPageGolden pins the full /metrics page of a front (dynamic
// graph, 2-worker pool) and of each worker after a fixed request script:
// every name, HELP text, TYPE, label order and value format. Histogram
// bucket counts and sums are masked. Rewrite with -update.
func TestMetricsPageGolden(t *testing.T) {
	f := newMetricsFixture(t)
	pages := map[string]http.Handler{
		"front":   f.front.Handler(),
		"worker":  f.workers[0].Handler(),
		"worker2": f.workers[1].Handler(),
	}
	for name, h := range pages {
		got := timingSample.ReplaceAllString(metricsPage(t, h), "$1 <masked>")
		path := filepath.Join("testdata", "metrics_"+name+".golden")
		if *updateGolden {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("%s /metrics page differs from %s:\n--- got ---\n%s", name, path, got)
		}
	}
}

// TestMetricsLint checks every /metrics page against the exposition rules:
// each family has # HELP then # TYPE, counters end in _total, histograms in
// _seconds, every sample belongs to a declared family, and every label value
// comes from a bounded set.
func TestMetricsLint(t *testing.T) {
	f := newMetricsFixture(t)
	lintPage(t, "front", metricsPage(t, f.front.Handler()), f.front.cfg.MaxSessions)
	for i, w := range f.workers {
		lintPage(t, fmt.Sprintf("worker %d", i), metricsPage(t, w.Handler()), 0)
	}
}

var (
	sampleLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$`)
	labelPair  = regexp.MustCompile(`^([a-zA-Z_][a-zA-Z0-9_]*)="([^"\\]*)"$`)
)

// lintPage applies TestMetricsLint's rules to one page. maxSessions bounds
// the distinct values of the session label (the session cache's size).
func lintPage(t *testing.T, page, text string, maxSessions int) {
	t.Helper()
	bounded := map[string]func(string) bool{
		"endpoint":  func(v string) bool { return v == "infer" || v == "mutate" || v == "simulate" },
		"code":      func(v string) bool { c, err := strconv.Atoi(v); return err == nil && http.StatusText(c) != "" },
		"precision": func(v string) bool { return v == "fp32" || v == "int8" },
		"le": func(v string) bool {
			_, err := strconv.ParseFloat(v, 64)
			return v == "+Inf" || err == nil
		},
		"session": func(v string) bool { return v != "" },
	}
	sessions := map[string]bool{}
	types := map[string]string{}
	var help string
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, text, _ := strings.Cut(rest, " ")
			if strings.TrimSpace(text) == "" {
				t.Errorf("%s: %s has an empty HELP", page, name)
			}
			help = name
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, _ := strings.Cut(rest, " ")
			if help != name {
				t.Errorf("%s: # TYPE %s is not preceded by its # HELP", page, name)
			}
			if _, dup := types[name]; dup {
				t.Errorf("%s: family %s declared twice", page, name)
			}
			types[name] = typ
			switch typ {
			case "counter":
				if !strings.HasSuffix(name, "_total") {
					t.Errorf("%s: counter %s does not end in _total", page, name)
				}
			case "histogram":
				if !strings.HasSuffix(name, "_seconds") {
					t.Errorf("%s: histogram %s does not end in _seconds", page, name)
				}
			case "gauge":
			default:
				t.Errorf("%s: %s has unknown type %q", page, name, typ)
			}
			continue
		}
		help = ""
		m := sampleLine.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("%s: malformed sample line %q", page, line)
			continue
		}
		family := m[1]
		if _, ok := types[family]; !ok {
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if base, ok := strings.CutSuffix(m[1], suffix); ok && types[base] == "histogram" {
					family = base
				}
			}
		}
		if _, ok := types[family]; !ok {
			t.Errorf("%s: sample %q belongs to no declared family", page, line)
		}
		if _, err := strconv.ParseFloat(m[3], 64); err != nil {
			t.Errorf("%s: sample %q has a non-numeric value", page, line)
		}
		if m[2] == "" {
			continue
		}
		for _, pair := range strings.Split(strings.Trim(m[2], "{}"), ",") {
			lm := labelPair.FindStringSubmatch(pair)
			if lm == nil {
				t.Errorf("%s: malformed label %q in %q", page, pair, line)
				continue
			}
			ok, known := bounded[lm[1]]
			if !known || !ok(lm[2]) {
				t.Errorf("%s: label %s=%q in %q is outside its bounded set", page, lm[1], lm[2], line)
			}
			if lm[1] == "session" {
				sessions[lm[2]] = true
			}
		}
	}
	if len(sessions) > maxSessions {
		t.Errorf("%s: %d distinct session labels, the cache holds %d", page, len(sessions), maxSessions)
	}
	if len(types) == 0 {
		t.Errorf("%s: no metric families", page)
	}
}
