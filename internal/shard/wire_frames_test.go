package shard

import (
	"bytes"
	"encoding/hex"
	"errors"
	"math"
	"runtime"
	"testing"

	"scale/internal/fault"
	"scale/internal/graph"
	"scale/internal/tensor"
)

// The golden frames below were encoded by the element-at-a-time bufio codec
// the bulk codec replaced. The bulk encoder must reproduce them byte for
// byte: front tiers and workers of either codec interoperate, and the
// benchmark's wire-byte counters stay comparable across the change.

func goldenLoad() *LoadRequest {
	return &LoadRequest{
		ReqID: 0x0102030405060708, Model: "gcn", Precision: "int8",
		Dims: []int32{3, 2, 1}, Layer: 1,
		Owned: []int32{0, 2}, RowPtr: []int32{0, 1, 1, 3}, ColIdx: []int32{1, 0, 2},
		Degrees: []int32{4, 1, 7},
		Features: []float32{1.5, float32(math.Copysign(0, -1)), -2,
			math.Float32frombits(0x7fc00001), 0.25, 3},
	}
}

const (
	goldenLoadHex = "485343530100000008070605040302010300000067636e04000000696e74380300000003000000" +
		"020000000100000001000000020000000000000002000000040000000000000001000000010000" +
		"000300000003000000010000000000000002000000030000000400000001000000070000000600" +
		"00000000c03f00000080000000c00100c07f0000803e00004040"
	goldenLayerHex    = "485343530100000009000000000000000100000002000000010000000100000002000000000000bf00000041"
	goldenResponseHex = "4853435301000000010000000200000000002040000080bf"
)

func TestWireGoldenFrames(t *testing.T) {
	check := func(name string, got []byte, want string) {
		t.Helper()
		if h := hex.EncodeToString(got); h != want {
			t.Fatalf("%s frame changed:\n got %s\nwant %s", name, h, want)
		}
	}
	var buf bytes.Buffer
	if err := goldenLoad().Encode(&buf); err != nil {
		t.Fatal(err)
	}
	check("load", buf.Bytes(), goldenLoadHex)

	buf.Reset()
	if err := (&LayerRequest{ReqID: 9, Layer: 1, Cols: 2, HaloIDs: []int32{1}, HaloRows: []float32{-0.5, 8}}).Encode(&buf); err != nil {
		t.Fatal(err)
	}
	check("layer", buf.Bytes(), goldenLayerHex)

	buf.Reset()
	if err := (&LayerResponse{Cols: 1, Rows: []float32{2.5, -1}}).Encode(&buf); err != nil {
		t.Fatal(err)
	}
	check("response", buf.Bytes(), goldenResponseHex)
}

// The front tier encodes load, layer and response frames straight from the
// plan and the feature matrices; the bytes must be exactly the ones the
// struct encoders produce for the same content.
func TestLoadFrameMatchesEncode(t *testing.T) {
	g := graph.CommunityGraph(90, 3, 6, 11)
	plan, err := PartitionGraph(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	spec := SessionSpec{Model: "gcn", Dims: []int{5, 4, 3}, Precision: "fp32"}
	h := tensor.NewMatrix(g.NumVertices(), 5)
	for i := range h.Data {
		h.Data[i] = float32(i%29)*0.37 - 4
	}
	for s := range plan.Shards {
		sub := &plan.Shards[s]
		n := sub.Graph.NumVertices()
		for li := 0; li < 2; li++ {
			q := &LoadRequest{ReqID: uint64(s) + 7, Model: spec.Model, Precision: spec.Precision,
				Dims: []int32{5, 4, 3}, Layer: int32(li), Owned: sub.Owned, Degrees: sub.Degrees,
				RowPtr: make([]int32, n+1)}
			for v := 0; v < n; v++ {
				nbrs := sub.Graph.InNeighbors(v)
				q.RowPtr[v+1] = q.RowPtr[v] + int32(len(nbrs))
				q.ColIdx = append(q.ColIdx, nbrs...)
			}
			for _, gv := range sub.Global {
				q.Features = append(q.Features, h.Row(int(gv))...)
			}
			var want bytes.Buffer
			if err := q.Encode(&want); err != nil {
				t.Fatal(err)
			}
			if got := loadFrame(q.ReqID, spec, li, sub, h); !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("shard %d layer %d: load frame differs from LoadRequest.Encode", s, li)
			}

			lq := &LayerRequest{ReqID: q.ReqID, Layer: int32(li), Cols: int32(h.Cols)}
			if li > 0 {
				lq.HaloIDs = sub.Halo
				for _, lh := range sub.Halo {
					lq.HaloRows = append(lq.HaloRows, h.Row(int(sub.Global[lh]))...)
				}
			}
			want.Reset()
			if err := lq.Encode(&want); err != nil {
				t.Fatal(err)
			}
			if got := layerFrame(q.ReqID, li, sub, h); !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("shard %d layer %d: layer frame differs from LayerRequest.Encode", s, li)
			}
		}

		out := tensor.NewMatrix(n, 3)
		for i := range out.Data {
			out.Data[i] = float32(i) * -0.5
		}
		resp := &LayerResponse{Cols: 3}
		for _, lid := range sub.Owned {
			resp.Rows = append(resp.Rows, out.Row(int(lid))...)
		}
		var want bytes.Buffer
		if err := resp.Encode(&want); err != nil {
			t.Fatal(err)
		}
		if got := responseFrame(out, sub.Owned); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("shard %d: response frame differs from LayerResponse.Encode", s)
		}
	}
}

// A length prefix is checked against the bytes left in the frame before
// anything is allocated for it: a frame that claims 2^27 floats but carries
// 8 bytes is a typed ErrBadGraph that costs almost nothing.
func TestWireLengthPrefixCheckedBeforeAllocation(t *testing.T) {
	frame, err := hex.DecodeString(goldenResponseHex)
	if err != nil {
		t.Fatal(err)
	}
	// Header, Cols, then a float count of 2^27 over 8 bytes of payload.
	lie := append(append([]byte{}, frame[:12]...), 0, 0, 0, 8)
	lie = append(lie, frame[16:]...)
	if len(lie) != 24 {
		t.Fatalf("frame is %d bytes, want 24", len(lie))
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, derr := DecodeLayerResponse(bytes.NewReader(lie))
	runtime.ReadMemStats(&after)
	if !errors.Is(derr, fault.ErrBadGraph) {
		t.Fatalf("err = %v, want ErrBadGraph", derr)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 64<<10 {
		t.Fatalf("rejecting the frame allocated %d bytes, want < 64 KB", grew)
	}
}

// FuzzWireFrames: decoding arbitrary bytes never panics, and whatever
// decodes re-encodes to exactly the bytes it consumed — the frame prefix of
// the input.
func FuzzWireFrames(f *testing.F) {
	for _, h := range []string{goldenLoadHex, goldenLayerHex, goldenResponseHex} {
		b, err := hex.DecodeString(h)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		f.Add(b[:len(b)-3])
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if q, err := decodeLoad(data); err == nil {
			if got := q.frame(); !bytes.HasPrefix(data, got) {
				t.Fatalf("load frame re-encodes to %x, input %x", got, data)
			}
		}
		if q, err := decodeLayer(data); err == nil {
			if got := q.frame(); !bytes.HasPrefix(data, got) {
				t.Fatalf("layer frame re-encodes to %x, input %x", got, data)
			}
		}
		if q, err := decodeLayerResponse(data); err == nil {
			if got := q.frame(); !bytes.HasPrefix(data, got) {
				t.Fatalf("response frame re-encodes to %x, input %x", got, data)
			}
		}
	})
}
