package shard

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"scale/internal/fault"
	"scale/internal/tensor"
)

// The shard data plane speaks a small length-prefixed binary framing over
// HTTP bodies (Content-Type application/octet-stream) instead of JSON:
// feature matrices dominate the exchanged bytes, raw little-endian float32
// preserves every bit exactly (no text round-trip), and encoding is a
// straight memory walk. Control-plane answers (errors, health) stay JSON.
//
// The codec works in bulk: an encoder computes the frame length, fills one
// pre-sized []byte and writes it once; a decoder parses a whole body held in
// memory and checks every length prefix against the bytes that remain
// before it allocates, so a corrupt prefix costs nothing but its error.
const (
	wireMagic   uint32 = 0x53435348 // "SCSH"
	wireVersion uint32 = 1
	// maxWireString caps the model and precision names.
	maxWireString = 4096
)

// LoadRequest ships one shard's state for one inference request: the local
// CSR subgraph, index maps, global degrees, and the feature rows of the
// layer the pass (re)starts at. Layer is normally 0; after a worker
// failover the front tier reloads the shard on a replacement worker with
// Layer set to the first layer that worker still has to run.
type LoadRequest struct {
	ReqID     uint64
	Model     string
	Precision string
	Dims      []int32 // full feature-length chain of the model
	Layer     int32   // layer whose input Features carries
	Owned     []int32 // local ids owned by this shard
	RowPtr    []int32 // local CSR, len = numVertices+1
	ColIdx    []int32
	Degrees   []int32   // global in-degree per local vertex
	Features  []float32 // numVertices × Dims[Layer], row-major
}

// NumVertices returns the local vertex count implied by the CSR.
func (q *LoadRequest) NumVertices() int { return len(q.RowPtr) - 1 }

// LayerRequest advances one loaded shard by one layer. HaloIDs/HaloRows
// overwrite the halo copies with the rows their owners computed in the
// previous layer; the first layer after a load carries none.
type LayerRequest struct {
	ReqID    uint64
	Layer    int32
	Cols     int32     // width of each halo row (= dims[Layer])
	HaloIDs  []int32   // local ids to overwrite
	HaloRows []float32 // len(HaloIDs) × Cols, row-major
}

// LayerResponse returns the owned rows of one layer's output, in Owned
// order.
type LayerResponse struct {
	Cols int32
	Rows []float32 // len(Owned) × Cols, row-major
}

// Frame sizes: the magic and version words, a string's length prefix plus
// its bytes, a slice's length prefix plus 4 bytes per element.
const headerSize = 8

func strSize(s string) int { return 4 + len(s) }
func sliceSize(n int) int  { return 4 + 4*n }

// frameWriter fills a frame pre-sized to its exact length.
type frameWriter struct {
	b   []byte
	off int
}

func newFrameWriter(size int) *frameWriter {
	w := &frameWriter{b: make([]byte, size)}
	w.u32(wireMagic)
	w.u32(wireVersion)
	return w
}

func (w *frameWriter) u32(v uint32) {
	binary.LittleEndian.PutUint32(w.b[w.off:], v)
	w.off += 4
}

func (w *frameWriter) u64(v uint64) {
	binary.LittleEndian.PutUint64(w.b[w.off:], v)
	w.off += 8
}

func (w *frameWriter) str(s string) {
	w.u32(uint32(len(s)))
	w.off += copy(w.b[w.off:], s)
}

// i32Block writes vs without a length prefix.
func (w *frameWriter) i32Block(vs []int32) {
	dst := w.b[w.off : w.off+4*len(vs)]
	for i, v := range vs {
		binary.LittleEndian.PutUint32(dst[4*i:], uint32(v))
	}
	w.off += len(dst)
}

func (w *frameWriter) i32s(vs []int32) {
	w.u32(uint32(len(vs)))
	w.i32Block(vs)
}

// f32Block writes vs without a length prefix.
func (w *frameWriter) f32Block(vs []float32) {
	dst := w.b[w.off : w.off+4*len(vs)]
	for i, v := range vs {
		binary.LittleEndian.PutUint32(dst[4*i:], math.Float32bits(v))
	}
	w.off += len(dst)
}

func (w *frameWriter) f32s(vs []float32) {
	w.u32(uint32(len(vs)))
	w.f32Block(vs)
}

// rows writes the rows of m named by ids as one float slice: row
// m.Row(ids[i]), or m.Row(remap[ids[i]]) when remap is non-nil.
func (w *frameWriter) rows(m *tensor.Matrix, ids, remap []int32) {
	w.u32(uint32(len(ids) * m.Cols))
	for _, id := range ids {
		if remap != nil {
			id = remap[id]
		}
		w.f32Block(m.Row(int(id)))
	}
}

// frameReader parses a frame held in memory. Errors accumulate so
// happy-path code stays linear; every one is a typed ErrBadGraph.
type frameReader struct {
	b   []byte
	off int
	err error
}

func (r *frameReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("shard: "+format+": %w", append(args, fault.ErrBadGraph)...)
	}
}

// take returns the next n bytes, or nil after recording a truncation.
func (r *frameReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n > len(r.b)-r.off {
		r.fail("truncated frame")
		return nil
	}
	p := r.b[r.off : r.off+n]
	r.off += n
	return p
}

func (r *frameReader) u32() uint32 {
	if p := r.take(4); p != nil {
		return binary.LittleEndian.Uint32(p)
	}
	return 0
}

func (r *frameReader) u64() uint64 {
	if p := r.take(8); p != nil {
		return binary.LittleEndian.Uint64(p)
	}
	return 0
}

func (r *frameReader) str() string {
	n := r.u32()
	if r.err != nil {
		return ""
	}
	if n > maxWireString {
		r.fail("string length %d exceeds limit", n)
		return ""
	}
	return string(r.take(int(n)))
}

// block reads a length prefix and returns the 4-byte elements it counts.
// The count is checked against the bytes left in the frame before the
// caller allocates anything for it.
func (r *frameReader) block() []byte {
	n := r.u32()
	if r.err != nil {
		return nil
	}
	if left := len(r.b) - r.off; uint64(n) > uint64(left/4) {
		r.fail("slice length %d exceeds the %d bytes left in the frame", n, left)
		return nil
	}
	return r.take(4 * int(n))
}

func (r *frameReader) i32s() []int32 {
	p := r.block()
	if len(p) == 0 {
		return nil
	}
	vs := make([]int32, len(p)/4)
	for i := range vs {
		vs[i] = int32(binary.LittleEndian.Uint32(p[4*i:]))
	}
	return vs
}

func (r *frameReader) f32s() []float32 {
	p := r.block()
	if len(p) == 0 {
		return nil
	}
	vs := make([]float32, len(p)/4)
	for i := range vs {
		vs[i] = math.Float32frombits(binary.LittleEndian.Uint32(p[4*i:]))
	}
	return vs
}

func (r *frameReader) header() {
	if m := r.u32(); r.err == nil && m != wireMagic {
		r.fail("bad magic %#x", m)
	}
	if v := r.u32(); r.err == nil && v != wireVersion {
		r.fail("unsupported wire version %d", v)
	}
}

// maxFramePresize caps how much of a sender's claimed body length
// readFrame allocates before any byte arrives.
const maxFramePresize = 4 << 20

// readFrame reads a whole frame body; a failed read is a truncated frame.
// size is the sender's claimed length (negative when unknown): it pre-sizes
// the buffer up to maxFramePresize, and the buffer grows past that only as
// bytes actually arrive.
func readFrame(rd io.Reader, size int64) ([]byte, error) {
	buf := bytes.NewBuffer(make([]byte, 0, min(max(size, 0), maxFramePresize)+bytes.MinRead))
	if _, err := buf.ReadFrom(rd); err != nil {
		return nil, fmt.Errorf("shard: truncated frame: %v: %w", err, fault.ErrBadGraph)
	}
	return buf.Bytes(), nil
}

// frame returns the encoded frame.
func (q *LoadRequest) frame() []byte {
	w := newFrameWriter(headerSize + 8 + strSize(q.Model) + strSize(q.Precision) + sliceSize(len(q.Dims)) + 4 +
		sliceSize(len(q.Owned)) + sliceSize(len(q.RowPtr)) + sliceSize(len(q.ColIdx)) +
		sliceSize(len(q.Degrees)) + sliceSize(len(q.Features)))
	w.u64(q.ReqID)
	w.str(q.Model)
	w.str(q.Precision)
	w.i32s(q.Dims)
	w.u32(uint32(q.Layer))
	w.i32s(q.Owned)
	w.i32s(q.RowPtr)
	w.i32s(q.ColIdx)
	w.i32s(q.Degrees)
	w.f32s(q.Features)
	return w.b
}

// Encode writes the frame in one Write.
func (q *LoadRequest) Encode(w io.Writer) error {
	_, err := w.Write(q.frame())
	return err
}

// loadFrame encodes the LoadRequest frame of shard sub straight from the
// plan and the layer-input matrix h: the CSR comes from sub.Graph and the
// feature rows are gathered from h, with no intermediate LoadRequest. The
// bytes are exactly LoadRequest.Encode's (pinned by TestLoadFrameMatchesEncode).
func loadFrame(reqID uint64, spec SessionSpec, layer int, sub *Subgraph, h *tensor.Matrix) []byte {
	g := sub.Graph
	n := g.NumVertices()
	w := newFrameWriter(headerSize + 8 + strSize(spec.Model) + strSize(spec.Precision) + sliceSize(len(spec.Dims)) + 4 +
		sliceSize(len(sub.Owned)) + sliceSize(n+1) + sliceSize(g.NumEdges()) +
		sliceSize(len(sub.Degrees)) + sliceSize(len(sub.Global)*h.Cols))
	w.u64(reqID)
	w.str(spec.Model)
	w.str(spec.Precision)
	w.u32(uint32(len(spec.Dims)))
	for _, d := range spec.Dims {
		w.u32(uint32(d))
	}
	w.u32(uint32(layer))
	w.i32s(sub.Owned)
	w.u32(uint32(n + 1))
	var end uint32
	w.u32(end)
	for v := 0; v < n; v++ {
		end += uint32(g.InDegree(v))
		w.u32(end)
	}
	w.u32(uint32(g.NumEdges()))
	for v := 0; v < n; v++ {
		w.i32Block(g.InNeighbors(v))
	}
	w.i32s(sub.Degrees)
	w.rows(h, sub.Global, nil)
	return w.b
}

// DecodeLoad reads one LoadRequest frame, returning typed input errors on
// corruption.
func DecodeLoad(rd io.Reader) (*LoadRequest, error) {
	b, err := readFrame(rd, -1)
	if err != nil {
		return nil, err
	}
	return decodeLoad(b)
}

func decodeLoad(b []byte) (*LoadRequest, error) {
	r := &frameReader{b: b}
	r.header()
	q := &LoadRequest{}
	q.ReqID = r.u64()
	q.Model = r.str()
	q.Precision = r.str()
	q.Dims = r.i32s()
	q.Layer = int32(r.u32())
	q.Owned = r.i32s()
	q.RowPtr = r.i32s()
	q.ColIdx = r.i32s()
	q.Degrees = r.i32s()
	q.Features = r.f32s()
	if r.err != nil {
		return nil, r.err
	}
	if len(q.RowPtr) < 1 {
		return nil, fmt.Errorf("shard: load frame missing CSR: %w", fault.ErrBadGraph)
	}
	return q, nil
}

func (q *LayerRequest) frame() []byte {
	w := newFrameWriter(headerSize + 8 + 4 + 4 + sliceSize(len(q.HaloIDs)) + sliceSize(len(q.HaloRows)))
	w.u64(q.ReqID)
	w.u32(uint32(q.Layer))
	w.u32(uint32(q.Cols))
	w.i32s(q.HaloIDs)
	w.f32s(q.HaloRows)
	return w.b
}

// Encode writes the frame in one Write.
func (q *LayerRequest) Encode(w io.Writer) error {
	_, err := w.Write(q.frame())
	return err
}

// layerFrame encodes the LayerRequest frame that advances shard sub past
// layer li, with the halo rows gathered straight from h (none at layer 0:
// the load carried them). The bytes are exactly LayerRequest.Encode's.
func layerFrame(reqID uint64, li int, sub *Subgraph, h *tensor.Matrix) []byte {
	var halo []int32
	if li > 0 {
		halo = sub.Halo
	}
	w := newFrameWriter(headerSize + 8 + 4 + 4 + sliceSize(len(halo)) + sliceSize(len(halo)*h.Cols))
	w.u64(reqID)
	w.u32(uint32(li))
	w.u32(uint32(h.Cols))
	w.i32s(halo)
	w.rows(h, halo, sub.Global)
	return w.b
}

// DecodeLayer reads one LayerRequest frame.
func DecodeLayer(rd io.Reader) (*LayerRequest, error) {
	b, err := readFrame(rd, -1)
	if err != nil {
		return nil, err
	}
	return decodeLayer(b)
}

func decodeLayer(b []byte) (*LayerRequest, error) {
	r := &frameReader{b: b}
	r.header()
	q := &LayerRequest{}
	q.ReqID = r.u64()
	q.Layer = int32(r.u32())
	q.Cols = int32(r.u32())
	q.HaloIDs = r.i32s()
	q.HaloRows = r.f32s()
	if r.err != nil {
		return nil, r.err
	}
	if len(q.HaloRows) != len(q.HaloIDs)*int(q.Cols) {
		return nil, fmt.Errorf("shard: layer frame has %d halo values for %d ids × %d cols: %w",
			len(q.HaloRows), len(q.HaloIDs), q.Cols, fault.ErrBadGraph)
	}
	return q, nil
}

func (q *LayerResponse) frame() []byte {
	w := newFrameWriter(headerSize + 4 + sliceSize(len(q.Rows)))
	w.u32(uint32(q.Cols))
	w.f32s(q.Rows)
	return w.b
}

// Encode writes the frame in one Write.
func (q *LayerResponse) Encode(w io.Writer) error {
	_, err := w.Write(q.frame())
	return err
}

// responseFrame encodes the LayerResponse frame carrying the rows of out
// named by owned, straight from out. The bytes are exactly
// LayerResponse.Encode's.
func responseFrame(out *tensor.Matrix, owned []int32) []byte {
	w := newFrameWriter(headerSize + 4 + sliceSize(len(owned)*out.Cols))
	w.u32(uint32(out.Cols))
	w.rows(out, owned, nil)
	return w.b
}

// DecodeLayerResponse reads one LayerResponse frame.
func DecodeLayerResponse(rd io.Reader) (*LayerResponse, error) {
	b, err := readFrame(rd, -1)
	if err != nil {
		return nil, err
	}
	return decodeLayerResponse(b)
}

func decodeLayerResponse(b []byte) (*LayerResponse, error) {
	r := &frameReader{b: b}
	r.header()
	q := &LayerResponse{}
	q.Cols = int32(r.u32())
	q.Rows = r.f32s()
	if r.err != nil {
		return nil, r.err
	}
	if q.Cols > 0 && len(q.Rows)%int(q.Cols) != 0 {
		return nil, fmt.Errorf("shard: response rows not a multiple of %d cols: %w", q.Cols, fault.ErrBadGraph)
	}
	return q, nil
}
