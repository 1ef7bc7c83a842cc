package serve

import (
	"bytes"
	"net/http"
	"testing"

	"scale/internal/shard"
)

// A body naming a session no worker could build is refused by check, before
// routing: the sharded route answers the same 400 bytes as the local one,
// with no worker address or doubled sentinel in the text, and the pool never
// starts a pass.
func TestSessionFaultsRefusedBeforeRouting(t *testing.T) {
	sim := testSim(t)
	local := newTestServer(t, Config{Sim: sim})
	pool, err := shard.NewPool(shard.PoolConfig{Workers: startShardWorkers(t, sim, 2), Parts: 2})
	if err != nil {
		t.Fatal(err)
	}
	sharded := newTestServer(t, Config{Sim: sim, ShardPool: pool})

	for _, tc := range []struct {
		name string
		edit func(b map[string]any)
	}{
		{"unknown model", func(b map[string]any) { b["model"] = "nope" }},
		{"unknown precision", func(b map[string]any) { b["precision"] = "fp64" }},
		{"zero dim", func(b map[string]any) { b["dims"] = []int{6, 0} }},
		{"negative dim", func(b map[string]any) { b["dims"] = []int{6, 4, -3} }},
		{"short dims", func(b map[string]any) { b["dims"] = []int{6} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			body := ringBody(40, 6)
			tc.edit(body)
			wantCode, want := postBody(t, local.Handler(), "/v1/infer", body)
			code, got := postBody(t, sharded.Handler(), "/v1/infer", body)
			if wantCode != http.StatusBadRequest || code != http.StatusBadRequest {
				t.Fatalf("status local %d, sharded %d, want 400 on both: %s", wantCode, code, got)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("sharded 400 differs from local:\nlocal:   %s\nsharded: %s", want, got)
			}
			if n := pool.Metrics().Requests.Load(); n != 0 {
				t.Fatalf("pool started %d passes for a body check refuses", n)
			}
		})
	}
}
