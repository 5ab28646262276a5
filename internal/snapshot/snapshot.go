// Package snapshot implements the versioned, checksummed, deterministic
// binary encoding used to persist full overlay state across coordinator
// crashes (DESIGN.md §2k).
//
// The format has three layers:
//
//   - Encoder/Decoder: primitive append-only codec (varints, zigzag ints,
//     fixed 8-byte float bits, length-prefixed byte strings). Encoding is
//     deterministic — the same logical state always produces the same
//     bytes — and decoding is bounds-checked so arbitrary corrupt input
//     returns an error instead of panicking or over-allocating.
//   - Envelope/Seal/Open: the file envelope. A 14-byte header (magic
//     "OMTS", format version, payload kind, payload length) followed by
//     the payload and a CRC32-C (Castagnoli) checksum over header+payload —
//     hardware-accelerated on amd64/arm64, so verifying a 100k-node
//     snapshot costs well under a millisecond. An Envelope encodes the
//     payload straight into that frame and seals it in place. Open
//     verifies all of it and wraps every framing or checksum failure in
//     ErrCorrupt, so callers can degrade to a cold rebuild from member
//     reports; an intact envelope of another format version is
//     ErrVersion instead.
//   - WriteFileAtomic/Rotate (file.go): crash-safe on-disk placement.
//
// Payload layouts live next to the state they serialize (core.BuildState,
// coords.DriftModel, protocol.Overlay); this package only fixes the
// primitive wire rules and the envelope.
package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"slices"
)

// Payload kinds carried in the envelope header.
const (
	KindOverlay   = 1 // a single protocol.Overlay
	KindGroupSet  = 2 // a protocol.GroupSet (shared substrate + per-group deltas)
	KindGroupTree = 3 // a multigroup.GroupTree (substrate-bound group delta)
)

// Version is the current snapshot format version. Open rejects files
// written by another format (ErrVersion) rather than misreading them.
const Version = 1

const magic = "OMTS"

// headerLen = magic(4) + version(1) + kind(1) + payloadLen(8).
const headerLen = 14

// ErrCorrupt is the sentinel wrapped by every Open failure of framing or
// integrity: bad magic, truncated file, length mismatch, or checksum
// mismatch. Callers test with errors.Is and fall back to a cold rebuild.
var ErrCorrupt = errors.New("snapshot: corrupt or truncated")

// ErrVersion is wrapped by Open when an intact envelope — framing and
// checksum verified — was written by another format version, such as a
// newer build's. It does not wrap ErrCorrupt: the file is whole, this
// build just cannot read it.
var ErrVersion = errors.New("snapshot: unsupported format version")

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Envelope is an Encoder that writes its payload straight into a sealed
// envelope: the header bytes are reserved at the front of its buffer, and
// Seal fills them in and appends the checksum in place, so the payload is
// never copied into a second buffer.
type Envelope struct {
	Encoder
}

// NewEnvelope returns an Envelope whose buffer is allocated once, with room
// for sizeHint payload bytes plus the header and checksum. The hint only
// sizes the buffer: a payload that outgrows it costs a regrow, one that
// falls short of it costs the slack, and neither changes a byte.
func NewEnvelope(sizeHint int) *Envelope {
	return &Envelope{Encoder{buf: make([]byte, headerLen, headerLen+sizeHint+4)}}
}

// Seal fills in the header for a payload of the given kind, appends the
// CRC32-C trailer and returns the sealed envelope, which aliases the
// Envelope's buffer. Write nothing more to the Envelope afterwards.
func (e *Envelope) Seal(kind byte) []byte {
	b := e.buf
	copy(b, magic)
	b[4], b[5] = Version, kind
	binary.LittleEndian.PutUint64(b[6:headerLen], uint64(len(b)-headerLen))
	e.buf = binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, crcTable))
	return e.buf
}

// Seal wraps an already encoded payload in the envelope: header, payload,
// CRC32-C trailer.
func Seal(kind byte, payload []byte) []byte {
	e := NewEnvelope(len(payload))
	e.Raw(payload)
	return e.Seal(kind)
}

// Open verifies the envelope and returns the payload kind and bytes. A
// framing or checksum failure wraps ErrCorrupt; an intact envelope of
// another format version wraps ErrVersion. The returned payload aliases
// data.
func Open(data []byte) (kind byte, payload []byte, err error) {
	if len(data) < headerLen+4 {
		return 0, nil, fmt.Errorf("%w: %d bytes is shorter than the minimal envelope", ErrCorrupt, len(data))
	}
	if string(data[:4]) != magic {
		return 0, nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, data[:4])
	}
	kind = data[5]
	n := binary.LittleEndian.Uint64(data[6:14])
	if n != uint64(len(data)-headerLen-4) {
		return 0, nil, fmt.Errorf("%w: header says %d payload bytes, file has %d", ErrCorrupt, n, len(data)-headerLen-4)
	}
	body := data[:len(data)-4]
	want := binary.LittleEndian.Uint32(data[len(data)-4:])
	if got := crc32.Checksum(body, crcTable); got != want {
		return 0, nil, fmt.Errorf("%w: checksum mismatch (file %#x, computed %#x)", ErrCorrupt, want, got)
	}
	// Only an envelope that arrived whole can be told apart from a torn
	// one, so the version is judged last.
	if data[4] != Version {
		return 0, nil, fmt.Errorf("%w: envelope written by format version %d; this build reads version %d", ErrVersion, data[4], Version)
	}
	return kind, data[headerLen : len(data)-4], nil
}

// Encoder appends primitives to a growing byte buffer. The zero value is
// ready to use.
type Encoder struct {
	buf []byte
}

// Bytes returns the encoded buffer (aliased, not copied).
func (e *Encoder) Bytes() []byte { return e.buf }

// Raw appends pre-encoded bytes verbatim, with no length prefix. Used to
// splice a sub-encoder's output (e.g. a body encoded while a side table
// was being collected) after the table it depends on.
func (e *Encoder) Raw(b []byte) { e.buf = append(e.buf, b...) }

// Uvarint appends an unsigned varint.
func (e *Encoder) Uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

// Int appends a signed int as a zigzag varint.
func (e *Encoder) Int(v int) { e.buf = binary.AppendVarint(e.buf, int64(v)) }

// Float64 appends the IEEE-754 bits as a fixed 8-byte little-endian word.
// Fixed width keeps NaN payloads and signed zeros byte-exact.
func (e *Encoder) Float64(v float64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v))
}

// Bool appends one byte, 0 or 1.
func (e *Encoder) Bool(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	e.buf = append(e.buf, b)
}

// String appends a length-prefixed byte string.
func (e *Encoder) String(s string) {
	e.Uvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// Fixed32 appends an int32 as a fixed 4-byte little-endian word (two's
// complement). Hot columnar sections trade the varint's size for decode
// speed: a fixed-width column bulk-decodes with one bounds check and no
// per-element branching.
func (e *Encoder) Fixed32(v int32) {
	e.buf = binary.LittleEndian.AppendUint32(e.buf, uint32(v))
}

// Fixed32Run appends n fixed 4-byte words, all v, and returns the byte
// offset of the first, which SetFixed32 takes to overwrite single words of
// the run. A column that is mostly one value is written in one pass and
// its exceptions patched in in any order, without materializing it.
func (e *Encoder) Fixed32Run(n int, v int32) int {
	off := len(e.buf)
	e.buf = slices.Grow(e.buf, 4*n)
	for range n {
		e.Fixed32(v)
	}
	return off
}

// SetFixed32 overwrites word i of the run at byte offset run (see
// Fixed32Run) with v.
func (e *Encoder) SetFixed32(run, i int, v int32) {
	binary.LittleEndian.PutUint32(e.buf[run+4*i:], uint32(v))
}

// Fixed32s appends a length-prefixed slice of fixed 4-byte int32 words.
func (e *Encoder) Fixed32s(vs []int32) {
	e.Uvarint(uint64(len(vs)))
	for _, v := range vs {
		e.Fixed32(v)
	}
}

// Int32Lists appends a column of variable-length int32 lists: every list's
// length first as a fixed 4-byte word, then every element, flattened. No
// list count is written — the reader learns it from earlier in the
// payload, like the other bulk primitives.
func (e *Encoder) Int32Lists(lists [][]int32) {
	for _, l := range lists {
		e.Fixed32(int32(len(l)))
	}
	for _, l := range lists {
		for _, v := range l {
			e.Fixed32(v)
		}
	}
}

// Int32ListsLen returns the exact number of bytes Int32Lists writes for
// lists, for payload sections that bound their encoded size up front.
func Int32ListsLen(lists [][]int32) int {
	n := 4 * len(lists)
	for _, l := range lists {
		n += 4 * len(l)
	}
	return n
}

// Float64s appends every element as a fixed 8-byte word, with no length
// prefix: columnar payload sections carry their count once up front and
// bulk-decode with the Decoder method of the same name.
func (e *Encoder) Float64s(vs []float64) {
	for _, v := range vs {
		e.Float64(v)
	}
}

// Bools appends one byte per element, with no length prefix (see Float64s).
func (e *Encoder) Bools(vs []bool) {
	for _, v := range vs {
		e.Bool(v)
	}
}

// Decoder reads primitives back out of a buffer. It is sticky-error: the
// first failure (truncation, varint overflow, oversized length prefix)
// poisons the decoder, every later read returns the zero value, and Err
// reports the cause. This lets payload decoders read a whole structure
// and check for corruption once at the end.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder wraps buf for reading.
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

// Err returns the first decode error, or nil.
func (d *Decoder) Err() error { return d.err }

// Len returns the number of unread bytes.
func (d *Decoder) Len() int { return len(d.buf) - d.off }

// Fail poisons the decoder with a semantic error discovered by a payload
// decoder (e.g. a table index out of range), wrapped in ErrCorrupt like
// any wire-level failure. Only the first failure is kept.
func (d *Decoder) Fail(format string, args ...any) { d.fail(format, args...) }

func (d *Decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: "+format, append([]any{ErrCorrupt}, args...)...)
	}
}

// Uvarint reads an unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail("truncated or overlong uvarint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

// Int reads a zigzag varint as an int.
func (d *Decoder) Int() int {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.fail("truncated or overlong varint at offset %d", d.off)
		return 0
	}
	d.off += n
	return int(v)
}

// Float64 reads a fixed 8-byte little-endian IEEE-754 word.
func (d *Decoder) Float64() float64 {
	if d.err != nil {
		return 0
	}
	if d.Len() < 8 {
		d.fail("truncated float64 at offset %d", d.off)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.buf[d.off:]))
	d.off += 8
	return v
}

// Bool reads one byte and requires it to be 0 or 1.
func (d *Decoder) Bool() bool {
	if d.err != nil {
		return false
	}
	if d.Len() < 1 {
		d.fail("truncated bool at offset %d", d.off)
		return false
	}
	b := d.buf[d.off]
	if b > 1 {
		d.fail("bool byte %#x at offset %d", b, d.off)
		return false
	}
	d.off++
	return b == 1
}

// String reads a length-prefixed byte string.
func (d *Decoder) String() string {
	n := d.length(1)
	if d.err != nil {
		return ""
	}
	s := string(d.buf[d.off : d.off+n])
	d.off += n
	return s
}

// Fixed32sInto decodes len(dst) fixed 4-byte words written by Fixed32 with
// a single bounds check, for columnar sections whose length the caller
// already knows.
func (d *Decoder) Fixed32sInto(dst []int32) {
	if d.err != nil {
		return
	}
	if d.Len()/4 < len(dst) {
		d.fail("fixed32 burst of %d words exceeds remaining %d bytes at offset %d", len(dst), d.Len(), d.off)
		return
	}
	buf := d.buf[d.off:]
	for i := range dst {
		dst[i] = int32(binary.LittleEndian.Uint32(buf[4*i:]))
	}
	d.off += 4 * len(dst)
}

// Fixed32s reads a length-prefixed slice written by Encoder.Fixed32s. A
// zero length decodes to nil so round-trips stay byte-exact.
func (d *Decoder) Fixed32s() []int32 {
	n := d.length(4)
	if d.err != nil || n == 0 {
		return nil
	}
	vs := make([]int32, n)
	d.Fixed32sInto(vs)
	if d.err != nil {
		return nil
	}
	return vs
}

// Int32Lists bulk-decodes n lists written by Encoder.Int32Lists: a length
// column followed by one flattened element column, both fixed-width. All
// elements share a single arena; each list is carved with a full-capacity
// limit (three-index slice) so a later append reallocates instead of
// overwriting its neighbor. A zero length decodes to nil, matching how the
// encoder writes a nil list, so round-trips stay byte-exact.
func (d *Decoder) Int32Lists(n int) [][]int32 {
	if d.err != nil || n == 0 {
		return nil
	}
	if n < 0 || d.Len()/4 < n {
		d.fail("length column of %d lists exceeds remaining %d bytes at offset %d", n, d.Len(), d.off)
		return nil
	}
	counts := make([]int32, n)
	d.Fixed32sInto(counts)
	if d.err != nil {
		return nil
	}
	total := 0
	for i, c := range counts {
		if c < 0 {
			d.fail("negative length %d for list %d", c, i)
			return nil
		}
		total += int(c)
	}
	// Each element occupies four bytes, so a corrupt length column cannot
	// demand an arena larger than the remaining buffer.
	if total > d.Len()/4 {
		d.fail("flattened column of %d elements exceeds remaining %d bytes at offset %d", total, d.Len(), d.off)
		return nil
	}
	flat := make([]int32, total)
	d.Fixed32sInto(flat)
	if d.err != nil {
		return nil
	}
	lists := make([][]int32, n)
	off := 0
	for i, c := range counts {
		if c == 0 {
			continue
		}
		end := off + int(c)
		lists[i] = flat[off:end:end]
		off = end
	}
	return lists
}

// Float64s bulk-reads n fixed 8-byte words written by Float64/Float64s:
// one bounds check covers the whole burst, so columnar sections decode at
// near copy speed. n comes from a count the caller already read; negative
// or oversized bursts poison the decoder instead of allocating.
func (d *Decoder) Float64s(n int) []float64 {
	if d.err != nil || n == 0 {
		return nil
	}
	if n < 0 || d.Len()/8 < n {
		d.fail("float64 burst of %d words exceeds remaining %d bytes at offset %d", n, d.Len(), d.off)
		return nil
	}
	vs := make([]float64, n)
	buf := d.buf[d.off:]
	for i := range vs {
		vs[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
	}
	d.off += 8 * n
	return vs
}

// Bools bulk-reads n bytes written by Bool/Bools, requiring each to be 0
// or 1 like the scalar reader does.
func (d *Decoder) Bools(n int) []bool {
	if d.err != nil || n == 0 {
		return nil
	}
	if n < 0 || d.Len() < n {
		d.fail("bool burst of %d bytes exceeds remaining %d at offset %d", n, d.Len(), d.off)
		return nil
	}
	vs := make([]bool, n)
	for i := range vs {
		b := d.buf[d.off+i]
		if b > 1 {
			d.fail("bool byte %#x at offset %d", b, d.off+i)
			return nil
		}
		vs[i] = b == 1
	}
	d.off += n
	return vs
}

// BoolBits is Bools read into a bitset: bit i of the result (word i/64,
// bit i%64) is set for a true byte. A column of flags folds into a bitset
// without a []bool in between.
func (d *Decoder) BoolBits(n int) []uint64 {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.Len() < n {
		d.fail("bool burst of %d bytes exceeds remaining %d at offset %d", n, d.Len(), d.off)
		return nil
	}
	bits := make([]uint64, (n+63)/64)
	for i, b := range d.buf[d.off : d.off+n] {
		if b > 1 {
			d.fail("bool byte %#x at offset %d", b, d.off+i)
			return nil
		}
		bits[i>>6] |= uint64(b) << uint(i&63)
	}
	d.off += n
	return bits
}

// Fixed32View is a read-only window onto fixed 4-byte words in a Decoder's
// buffer, read by index.
type Fixed32View []byte

// Len returns the number of words in the view.
func (v Fixed32View) Len() int { return len(v) / 4 }

// At returns word i.
func (v Fixed32View) At(i int) int32 { return int32(binary.LittleEndian.Uint32(v[4*i:])) }

// Fixed32View consumes n fixed 4-byte words written by Fixed32 and returns
// them as a view into the buffer, for columnar sections a caller folds into
// its own layout, in as many passes as it needs, without materializing them.
func (d *Decoder) Fixed32View(n int) Fixed32View {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.Len()/4 < n {
		d.fail("fixed32 burst of %d words exceeds remaining %d bytes at offset %d", n, d.Len(), d.off)
		return nil
	}
	v := Fixed32View(d.buf[d.off : d.off+4*n])
	d.off += 4 * n
	return v
}

// Length reads a length prefix for a sequence whose elements each occupy
// at least elemSize bytes, rejecting prefixes that could not fit in the
// remaining buffer. Payload decoders use it before allocating slices.
func (d *Decoder) Length(elemSize int) int { return d.length(elemSize) }

func (d *Decoder) length(elemSize int) int {
	v := d.Uvarint()
	if d.err != nil {
		return 0
	}
	if elemSize < 1 {
		elemSize = 1
	}
	if v > uint64(d.Len()/elemSize) {
		d.fail("length prefix %d exceeds remaining %d bytes at offset %d", v, d.Len(), d.off)
		return 0
	}
	return int(v)
}
