package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"
)

// decodeInferBody parses a POST /v1/infer body without reflection: the
// number arrays (dims, edges, features) are parsed straight into their
// slices, and every feature row is a full-slice-expression subslice of one
// backing array, body.feat.
//
// Contract: for every input it accepts and rejects exactly what
// json.Unmarshal(b, &inferBody{}) does, with identical field values and
// float bits (FuzzInferBody checks this differentially). That covers a
// top-level null, nulls inside arrays (they keep the element's value),
// duplicate keys (the later value is decoded into the earlier one with
// encoding/json's slice-reuse rules), case-folded keys, unknown fields
// (validated, then ignored), edges with 1 or 3+ numbers, fractional or
// exponent numbers into ints (rejected), float32 overflow (rejected), and
// the 10000-level nesting limit. Numbers go through the same strconv calls
// encoding/json makes, behind a fast path for short plain decimals that is
// exact by construction; strings with escapes or invalid UTF-8 go through
// json.Unmarshal on the string token.
//
// Non-whitespace after the closing brace is rejected, as json.Unmarshal
// rejects it; the json.Decoder this replaced ignored it.
func decodeInferBody(b []byte) (inferBody, error) {
	d := bodyDecoder{b: b, flat: true}
	var body inferBody
	if err := d.document(&body); err != nil {
		return inferBody{}, err
	}
	if !d.flat {
		body.feat = flatten(body.Features)
	}
	return body, nil
}

// maxNestingDepth is encoding/json's limit on nested arrays and objects.
const maxNestingDepth = 10000

type bodyDecoder struct {
	b     []byte
	i     int // offset of the next unread byte
	depth int // arrays and objects open at i
	// flat reports whether body.Features' rows are consecutive subslices
	// of body.feat. Decoding features into rows an earlier duplicate key
	// left behind clears it; decodeInferBody then flattens once at the end.
	flat bool
}

// document decodes the whole input: one object (or null) and nothing but
// whitespace after it.
func (d *bodyDecoder) document(body *inferBody) error {
	d.ws()
	switch d.peek() {
	case '{':
		if err := d.object(body); err != nil {
			return err
		}
	case 'n':
		if err := d.literal("null"); err != nil {
			return err
		}
	default:
		return d.typeError("request object")
	}
	d.ws()
	if d.i != len(d.b) {
		return d.unexpected("after top-level value")
	}
	return nil
}

// object decodes an object's members into body's fields, or — with a nil
// body, for an ignored value — validates them and moves past.
func (d *bodyDecoder) object(body *inferBody) error {
	if err := d.open(); err != nil {
		return err
	}
	d.ws()
	if d.peek() == '}' {
		d.close()
		return nil
	}
	for {
		key, err := d.key()
		if err != nil {
			return err
		}
		d.ws()
		if d.peek() != ':' {
			return d.unexpected("after object key")
		}
		d.i++
		d.ws()
		if body == nil {
			err = d.skip()
		} else {
			err = d.field(body, key)
		}
		if err != nil {
			return err
		}
		d.ws()
		switch d.peek() {
		case ',':
			d.i++
			d.ws()
			continue
		case '}':
			d.close()
			return nil
		}
		return d.unexpected("after object key:value pair")
	}
}

// key reads an object key and returns it unquoted.
func (d *bodyDecoder) key() (string, error) {
	if d.peek() != '"' {
		return "", d.unexpected("looking for beginning of object key string")
	}
	start := d.i
	esc, err := d.string()
	if err != nil {
		return "", err
	}
	if !esc {
		return string(d.b[start+1 : d.i-1]), nil
	}
	var k string
	err = json.Unmarshal(d.b[start:d.i], &k)
	return k, err
}

// field decodes the value of key into body. Keys match field names the way
// encoding/json matches them: exactly, else under Unicode case folding.
func (d *bodyDecoder) field(body *inferBody, key string) error {
	var err error
	switch {
	case strings.EqualFold(key, "model"):
		err = d.stringField(&body.Model)
	case strings.EqualFold(key, "dims"):
		body.Dims, err = decodeSlice(d, body.Dims, (*bodyDecoder).int)
	case strings.EqualFold(key, "num_vertices"):
		err = d.int(&body.NumVertices)
	case strings.EqualFold(key, "edges"):
		body.Edges, err = decodeSlice(d, body.Edges, (*bodyDecoder).pair)
	case strings.EqualFold(key, "features"):
		err = d.features(body)
	case strings.EqualFold(key, "timeout_ms"):
		err = d.int(&body.TimeoutMS)
	case strings.EqualFold(key, "precision"):
		err = d.stringField(&body.Precision)
	case strings.EqualFold(key, "graph"):
		err = d.stringField(&body.Graph)
	case strings.EqualFold(key, "sample_fanout"):
		err = d.int(&body.SampleFanout)
	case strings.EqualFold(key, "sample_seed"):
		err = d.uint64(&body.SampleSeed)
	default:
		return d.skip()
	}
	if err != nil {
		return fmt.Errorf("field %q: %w", key, err)
	}
	return nil
}

// stringField decodes a string-typed field: a string replaces *dst, null
// keeps it.
func (d *bodyDecoder) stringField(dst *string) error {
	switch d.peek() {
	case 'n':
		return d.literal("null")
	case '"':
	default:
		return d.typeError("string")
	}
	start := d.i
	esc, err := d.string()
	if err != nil {
		return err
	}
	tok := d.b[start:d.i]
	if !esc && utf8.Valid(tok) {
		*dst = string(tok[1 : len(tok)-1])
		return nil
	}
	return json.Unmarshal(tok, dst)
}

// int decodes an int-typed value: a number replaces *dst, null keeps it.
func (d *bodyDecoder) int(dst *int) error {
	// Fast path: a plain integer of at most 18 digits, the shape of every
	// vertex id. Anything else, including a leading zero or a digit, '.'
	// or exponent after the 18th digit, takes the checked path below.
	b, i := d.b, d.i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	start := i
	x := 0
	for ; i < len(b) && i-start < 18 && isDigit(b[i]); i++ {
		x = x*10 + int(b[i]-'0')
	}
	if i > start && (b[start] != '0' || i == start+1) && (i == len(b) || !inNumber(b[i])) {
		if neg {
			x = -x
		}
		*dst = x
		d.i = i
		return nil
	}
	if c := d.peek(); c == 'n' {
		return d.literal("null")
	} else if c != '-' && !isDigit(c) {
		return d.typeError("int")
	}
	n, err := d.number()
	if err != nil {
		return err
	}
	v, err := strconv.ParseInt(string(n.tok), 10, 64)
	if err != nil {
		return fmt.Errorf("cannot decode number %s into int", n.tok)
	}
	*dst = int(v)
	return nil
}

// uint64 decodes a uint64-typed value: a number replaces *dst, null keeps
// it.
func (d *bodyDecoder) uint64(dst *uint64) error {
	if c := d.peek(); c == 'n' {
		return d.literal("null")
	} else if c != '-' && !isDigit(c) {
		return d.typeError("uint64")
	}
	n, err := d.number()
	if err != nil {
		return err
	}
	v, err := strconv.ParseUint(string(n.tok), 10, 64)
	if err != nil {
		return fmt.Errorf("cannot decode number %s into uint64", n.tok)
	}
	*dst = v
	return nil
}

// float decodes one feature value: a number replaces *dst, null keeps it.
func (d *bodyDecoder) float(dst *float32) error {
	if c := d.peek(); c == 'n' {
		return d.literal("null")
	} else if c != '-' && !isDigit(c) {
		return d.typeError("float32")
	}
	n, err := d.number()
	if err != nil {
		return err
	}
	// A mantissa below 2^24 and a power of ten up to 10^10 are both exact
	// in float32, so one IEEE division rounds correctly: the bits are the
	// ones strconv.ParseFloat(tok, 32) returns (it takes the same path).
	if !n.exp && n.nd <= 19 && n.mant <= 1<<24 && n.frac <= 10 {
		f := float32(n.mant)
		if n.frac > 0 {
			f /= float32pow10[n.frac]
		}
		if n.neg {
			f = -f
		}
		*dst = f
		return nil
	}
	v, err := strconv.ParseFloat(string(n.tok), 32)
	if err != nil {
		return fmt.Errorf("cannot decode number %s into float32", n.tok)
	}
	*dst = float32(v)
	return nil
}

var float32pow10 = [...]float32{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10}

// grow returns s with length n+1 for decoding element n, reusing capacity
// the way encoding/json does: an element inside cap(s) keeps the value it
// had, one past it starts from zero. Capacity doubles, so a slice of n
// elements costs O(log n) allocations.
func grow[T any](s []T, n int) []T {
	if n < cap(s) {
		return s[:n+1]
	}
	t := make([]T, n+1, max(2*cap(s), 16))
	copy(t, s[:n])
	return t
}

// decodeSlice decodes an array into s with encoding/json's slice rules:
// null gives nil, [] a fresh empty slice, and each element decodes in
// place over s's old element (see grow), through elem.
func decodeSlice[T any](d *bodyDecoder, s []T, elem func(*bodyDecoder, *T) error) ([]T, error) {
	if v, done, err := openSlice[T](d); done {
		return v, err
	}
	for n := 0; ; n++ {
		s = grow(s, n)
		if err := elem(d, &s[n]); err != nil {
			return nil, err
		}
		if more, err := d.next(); err != nil || !more {
			return s[:n+1], err
		}
	}
}

// pair decodes one edge into e: null keeps it; an array overwrites its
// first two elements, zeroes any it leaves out, and validates but ignores
// any past them.
func (d *bodyDecoder) pair(e *[2]int) error {
	if d.peek() == 'n' {
		return d.literal("null")
	}
	_, done, err := openSlice[int](d)
	j := 0
	for ; !done && err == nil; j++ {
		if j < len(e) {
			err = d.int(&e[j])
		} else {
			err = d.skip()
		}
		if err == nil {
			var more bool
			more, err = d.next()
			done = !more
		}
	}
	if err != nil {
		return err
	}
	for ; j < len(e); j++ {
		e[j] = 0
	}
	return nil
}

// features decodes the features array. Into a body with no rows yet — the
// normal case — it parses every value straight into one backing array and
// cuts the rows from it; into rows an earlier "features" key left, it
// decodes in place with encoding/json's reuse rules.
func (d *bodyDecoder) features(body *inferBody) error {
	if cap(body.Features) > 0 && d.peek() == '[' {
		d.flat = false
		body.feat = nil
		var err error
		body.Features, err = decodeSlice(d, body.Features, (*bodyDecoder).row)
		return err
	}
	rows, done, err := openSlice[[]float32](d)
	body.feat, d.flat = nil, true
	if done {
		body.Features = rows
		return err
	}
	var flat []float32
	for {
		switch d.peek() {
		case 'n':
			if err := d.literal("null"); err != nil {
				return err
			}
			rows = grow(rows, len(rows))
		case '[':
			start := len(flat)
			if flat, err = d.floatRow(flat); err != nil {
				return err
			}
			// Provisional: flat may move as it grows; the rows are
			// re-pointed at its final array below.
			row := []float32{}
			if len(flat) > start {
				row = flat[start:len(flat):len(flat)]
			}
			rows = grow(rows, len(rows))
			rows[len(rows)-1] = row
		default:
			return d.typeError("[]float32")
		}
		more, err := d.next()
		if err != nil {
			return err
		}
		if !more {
			break
		}
	}
	repoint(rows, flat)
	body.Features, body.feat = rows, flat
	return nil
}

// floatRow appends the values of one fresh feature row to flat.
func (d *bodyDecoder) floatRow(flat []float32) ([]float32, error) {
	if _, done, err := openSlice[float32](d); done {
		return flat, err
	}
	for {
		flat = grow(flat, len(flat))
		if err := d.float(&flat[len(flat)-1]); err != nil {
			return flat, err
		}
		if more, err := d.next(); err != nil || !more {
			return flat, err
		}
	}
}

// row decodes one feature row into *r in place.
func (d *bodyDecoder) row(r *[]float32) error {
	var err error
	*r, err = decodeSlice(d, *r, (*bodyDecoder).float)
	return err
}

// openSlice starts decoding a slice-typed value. null yields nil and []
// a fresh empty slice, as encoding/json sets them, with done set; otherwise
// it stops after the '[' with the first element next.
func openSlice[T any](d *bodyDecoder) (s []T, done bool, err error) {
	switch d.peek() {
	case 'n':
		return nil, true, d.literal("null")
	case '[':
	default:
		return nil, true, d.typeError("array")
	}
	if err := d.open(); err != nil {
		return nil, true, err
	}
	d.ws()
	if d.peek() == ']' {
		d.close()
		return []T{}, true, nil
	}
	return nil, false, nil
}

// next moves past the separator after an array element: more reports a
// ',' (with the next element up), !more the closing ']'.
func (d *bodyDecoder) next() (more bool, err error) {
	d.ws()
	switch d.peek() {
	case ',':
		d.i++
		d.ws()
		return true, nil
	case ']':
		d.close()
		return false, nil
	}
	return false, d.unexpected("after array element")
}

// repoint points each non-empty row at its span of flat, in order: the
// rows' lengths tile flat exactly.
func repoint(rows [][]float32, flat []float32) {
	off := 0
	for k, r := range rows {
		if n := len(r); n > 0 {
			rows[k] = flat[off : off+n : off+n]
			off += n
		}
	}
}

// flatten copies rows into one backing array and re-points them at it.
func flatten(rows [][]float32) []float32 {
	total := 0
	for _, r := range rows {
		total += len(r)
	}
	flat := make([]float32, 0, total)
	for _, r := range rows {
		flat = append(flat, r...)
	}
	repoint(rows, flat)
	return flat
}

// skip validates one value of any type and moves past it.
func (d *bodyDecoder) skip() error {
	switch c := d.peek(); {
	case c == '{':
		return d.object(nil)
	case c == '[':
		if err := d.open(); err != nil {
			return err
		}
		d.ws()
		if d.peek() == ']' {
			d.close()
			return nil
		}
		for {
			if err := d.skip(); err != nil {
				return err
			}
			if more, err := d.next(); err != nil || !more {
				return err
			}
		}
	case c == '"':
		_, err := d.string()
		return err
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	case c == '-' || isDigit(c):
		_, err := d.number()
		return err
	}
	return d.unexpected("looking for beginning of value")
}

// string validates the string literal at d.i and moves past it; esc
// reports whether it contains escapes.
func (d *bodyDecoder) string() (esc bool, err error) {
	b := d.b
	i := d.i + 1
	for i < len(b) {
		switch c := b[i]; {
		case c == '"':
			d.i = i + 1
			return esc, nil
		case c == '\\':
			esc = true
			i++
			if i == len(b) {
				break
			}
			switch b[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i++
			case 'u':
				i++
				for k := 0; k < 4; k++ {
					if i == len(b) || !isHex(b[i]) {
						d.i = i
						return esc, d.unexpected("in \\u hexadecimal character escape")
					}
					i++
				}
			default:
				d.i = i
				return esc, d.unexpected("in string escape code")
			}
		case c < 0x20:
			d.i = i
			return esc, d.unexpected("in string literal")
		default:
			i++
		}
	}
	d.i = len(b)
	return esc, d.unexpected("in string literal")
}

// num is one scanned JSON number.
type num struct {
	tok  []byte
	neg  bool
	mant uint64 // the integer and fraction digits as one integer, while nd ≤ 19
	nd   int    // digits in the integer and fraction parts
	frac int    // digits in the fraction part
	exp  bool   // whether tok has an exponent part
}

// number scans the JSON number at d.i, checking its grammar, and moves
// past it.
func (d *bodyDecoder) number() (num, error) {
	b := d.b
	i := d.i
	var n num
	if b[i] == '-' {
		n.neg = true
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		n.nd = 1
		i++
	case i < len(b) && b[i] >= '1' && b[i] <= '9':
		for ; i < len(b) && isDigit(b[i]); i++ {
			n.mant = n.mant*10 + uint64(b[i]-'0')
			n.nd++
		}
	default:
		d.i = i
		return n, d.unexpected("in numeric literal")
	}
	if i < len(b) && b[i] == '.' {
		i++
		if i == len(b) || !isDigit(b[i]) {
			d.i = i
			return n, d.unexpected("after decimal point in numeric literal")
		}
		for ; i < len(b) && isDigit(b[i]); i++ {
			n.mant = n.mant*10 + uint64(b[i]-'0')
			n.nd++
			n.frac++
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		n.exp = true
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i == len(b) || !isDigit(b[i]) {
			d.i = i
			return n, d.unexpected("in exponent of numeric literal")
		}
		for i < len(b) && isDigit(b[i]) {
			i++
		}
	}
	n.tok = b[d.i:i]
	d.i = i
	return n, nil
}

func (d *bodyDecoder) literal(lit string) error {
	if len(d.b)-d.i >= len(lit) && string(d.b[d.i:d.i+len(lit)]) == lit {
		d.i += len(lit)
		return nil
	}
	return d.unexpected("in literal " + lit)
}

func (d *bodyDecoder) open() error {
	d.i++
	d.depth++
	if d.depth > maxNestingDepth {
		return errors.New("exceeded max depth")
	}
	return nil
}

func (d *bodyDecoder) close() {
	d.i++
	d.depth--
}

func (d *bodyDecoder) ws() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// peek returns the byte at d.i, or 0 at the end of the input (0 is never
// valid where the decoder peeks, so both end in the same error).
func (d *bodyDecoder) peek() byte {
	if d.i < len(d.b) {
		return d.b[d.i]
	}
	return 0
}

func (d *bodyDecoder) unexpected(context string) error {
	if d.i >= len(d.b) {
		return errors.New("unexpected end of JSON input")
	}
	return fmt.Errorf("invalid character %q %s at offset %d", rune(d.b[d.i]), context, d.i)
}

// typeError rejects a well-started value of the wrong JSON type.
func (d *bodyDecoder) typeError(want string) error {
	var kind string
	switch c := d.peek(); {
	case c == '{':
		kind = "object"
	case c == '[':
		kind = "array"
	case c == '"':
		kind = "string"
	case c == 't' || c == 'f':
		kind = "bool"
	case c == 'n':
		kind = "null"
	case c == '-' || isDigit(c):
		kind = "number"
	default:
		return d.unexpected("looking for beginning of value")
	}
	return fmt.Errorf("cannot decode %s into %s at offset %d", kind, want, d.i)
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

// inNumber reports whether c can continue a JSON number.
func inNumber(c byte) bool {
	return isDigit(c) || c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-'
}

func isHex(c byte) bool {
	return isDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
}
