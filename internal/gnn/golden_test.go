package gnn

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"

	"scale/internal/graph"
	"scale/internal/tensor"
)

// goldenDigest pins the exact bits of every layer output, fp32 and int8, for
// every model in the zoo, against digests recorded from the per-edge
// float32 kernels (one axpy per in-edge, one axpy per non-zero GEMV input).
// The executor and core.Forward share tensor.VecMatInto, so their agreement
// alone cannot catch a change to its rounding; these digests can. A kernel
// change that keeps the per-element additions and their order keeps every
// digest. Never re-record them to accommodate a kernel change.
var goldenDigest = map[string][]uint64{
	"g0/gat-4h/fp32":  {0xca86835e24624432, 0xd691b25c0054b301},
	"g0/gat-4h/int8":  {0x2bf463ac4903adc8, 0x8aeb75eb9cf0a981},
	"g0/gat/fp32":     {0xe175dcc3c73babd0, 0x7c82bd7c308fa579},
	"g0/gat/int8":     {0x81f5a01f77d8c001, 0xa8d0d83642eec80a},
	"g0/gcn/fp32":     {0x9eb4a823cb804471, 0xb71549ab3eb8ecfa},
	"g0/gcn/int8":     {0xf7bd590aed4d8d2a, 0x389b6cdbb974c4e5},
	"g0/ggcn/fp32":    {0x1e5bd536a16bac92, 0x90557008d7ceebaf},
	"g0/ggcn/int8":    {0x44d8663dbe9e895e, 0x8ddf3a8ad28f6dd4},
	"g0/gin/fp32":     {0x59fcb8136c595658, 0x143e312e23180c8},
	"g0/gin/int8":     {0x4592abce60d27be9, 0xc5c892b351a536a4},
	"g0/gs-mean/fp32": {0x359e1c8461fb242a, 0xfcd4013a8c1a4f14},
	"g0/gs-mean/int8": {0x52c6b6b5df330d3c, 0xa8fbadfa7c2d6e82},
	"g0/gs-pl/fp32":   {0xa7cfdf445a5fd48b, 0x6015890ab7399b77},
	"g0/gs-pl/int8":   {0xbe33a86a8e9ed36b, 0x6d2a60ba841731b},
	"g1/gat-4h/fp32":  {0x68ad29ad49e00123, 0xe31c6180f10f761f},
	"g1/gat-4h/int8":  {0x688b5de5a06fe7c3, 0x11e4a845b78f9b2b},
	"g1/gat/fp32":     {0x411bcd6df07b0dc4, 0x8ff0272cd0e2b78f},
	"g1/gat/int8":     {0x88b79e0f09bc32ea, 0x8dbfd5ac54b3090},
	"g1/gcn/fp32":     {0x283d8eb7f9181634, 0xd45c258ac902b8c6},
	"g1/gcn/int8":     {0x2613c747f0ddcb98, 0x4618512a90e65e0e},
	"g1/ggcn/fp32":    {0xfdea914fe8719e2a, 0x282e2167f67ec418},
	"g1/ggcn/int8":    {0xea1e2f0b8e8b2460, 0x35b99660c5320860},
	"g1/gin/fp32":     {0x5c7517a56becdad, 0xf8b42b229cb8b0de},
	"g1/gin/int8":     {0xf88b9de495709247, 0x52020e2e62e896c4},
	"g1/gs-mean/fp32": {0xcaa9f6277b748943, 0x9652f2523182db8e},
	"g1/gs-mean/int8": {0x2cd4d4f18ca33658, 0xcaaee35e98664694},
	"g1/gs-pl/fp32":   {0xec65ec40bd73c98b, 0xc00f30e136fb826b},
	"g1/gs-pl/int8":   {0xab3380e23a14ae4a, 0x8597d69257721bd4},
}

// goldenGraphs returns the two graphs the digests were recorded on: a sparse
// Erdős–Rényi graph (many in-degree 0 and 1 vertices) and a scaled
// Reddit-like community graph (long reduce chains). Together their
// in-degrees cover every residue mod 4, including in-degree 0.
func goldenGraphs() []*graph.Graph {
	return []*graph.Graph{
		graph.ErdosRenyi(97, 300, 13),
		graph.CommunityGraph(160, 4, 22, 17),
	}
}

// goldenFeatures is RandomFeatures with every fifth element zeroed, so the
// GEMV's zero-skip runs on the first layer as well as after ReLU.
func goldenFeatures(g *graph.Graph, dim int) *tensor.Matrix {
	x := RandomFeatures(g, dim, 29)
	for i := 0; i < len(x.Data); i += 5 {
		x.Data[i] = 0
	}
	return x
}

func digestMatrix(m *tensor.Matrix) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, v := range m.Data {
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
		h.Write(b[:])
	}
	return h.Sum64()
}

func TestForwardGoldenDigest(t *testing.T) {
	gs := goldenGraphs()
	var residues [4]bool
	zero := false
	for _, g := range gs {
		for v := 0; v < g.NumVertices(); v++ {
			d := g.InDegree(v)
			residues[d%4] = true
			zero = zero || d == 0
		}
	}
	if residues != [4]bool{true, true, true, true} || !zero {
		t.Fatalf("golden graphs must cover every in-degree residue mod 4 and in-degree 0: residues %v, zero %v", residues, zero)
	}

	got := make(map[string][]uint64)
	for gi, g := range gs {
		x := goldenFeatures(g, 37)
		for _, name := range AllModelNames() {
			for _, prec := range []string{"fp32", "int8"} {
				m := MustModel(name, []int{37, 24, 7}, 3)
				if prec == "int8" {
					if err := QuantizeModel(m); err != nil {
						t.Fatal(err)
					}
				}
				outs, err := Forward(m, g, x)
				if err != nil {
					t.Fatalf("%s %s: %v", name, prec, err)
				}
				key := fmt.Sprintf("g%d/%s/%s", gi, name, prec)
				for _, o := range outs {
					got[key] = append(got[key], digestMatrix(o))
				}
			}
		}
	}

	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var bad []string
	for _, k := range keys {
		want, ok := goldenDigest[k]
		if !ok || !slices.Equal(want, got[k]) {
			bad = append(bad, k)
		}
	}
	if len(bad) > 0 || len(goldenDigest) != len(got) {
		var b strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&b, "\t%q: {", k)
			for i, d := range got[k] {
				if i > 0 {
					b.WriteString(", ")
				}
				fmt.Fprintf(&b, "%#x", d)
			}
			b.WriteString("},\n")
		}
		t.Fatalf("layer-output digests differ for %v (%d recorded, %d computed); computed:\n%s",
			bad, len(goldenDigest), len(got), b.String())
	}
}
