package snapshot

import (
	"bytes"
	"errors"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"testing"
)

func TestPrimitiveRoundTrip(t *testing.T) {
	var e Encoder
	e.Uvarint(0)
	e.Uvarint(1 << 40)
	e.Int(-7)
	e.Int(1 << 30)
	e.Float64(3.14159)
	e.Float64(math.Inf(-1))
	e.Float64(math.Copysign(0, -1))
	e.Bool(true)
	e.Bool(false)
	e.String("")
	e.String("polar grid")

	d := NewDecoder(e.Bytes())
	if got := d.Uvarint(); got != 0 {
		t.Errorf("Uvarint = %d, want 0", got)
	}
	if got := d.Uvarint(); got != 1<<40 {
		t.Errorf("Uvarint = %d, want %d", got, uint64(1)<<40)
	}
	if got := d.Int(); got != -7 {
		t.Errorf("Int = %d, want -7", got)
	}
	if got := d.Int(); got != 1<<30 {
		t.Errorf("Int = %d, want %d", got, 1<<30)
	}
	if got := d.Float64(); got != 3.14159 {
		t.Errorf("Float64 = %v, want 3.14159", got)
	}
	if got := d.Float64(); !math.IsInf(got, -1) {
		t.Errorf("Float64 = %v, want -Inf", got)
	}
	if got := d.Float64(); got != 0 || !math.Signbit(got) {
		t.Errorf("Float64 = %v, want -0", got)
	}
	if got := d.Bool(); !got {
		t.Error("Bool = false, want true")
	}
	if got := d.Bool(); got {
		t.Error("Bool = true, want false")
	}
	if got := d.String(); got != "" {
		t.Errorf("String = %q, want empty", got)
	}
	if got := d.String(); got != "polar grid" {
		t.Errorf("String = %q", got)
	}
	if d.Err() != nil {
		t.Fatalf("Err = %v", d.Err())
	}
	if d.Len() != 0 {
		t.Errorf("Len = %d bytes left over", d.Len())
	}
}

func TestDecoderStickyError(t *testing.T) {
	d := NewDecoder([]byte{0x05}) // length prefix 5 with no payload behind it
	if got := d.String(); got != "" {
		t.Errorf("String on corrupt input = %q, want empty", got)
	}
	if !errors.Is(d.Err(), ErrCorrupt) {
		t.Fatalf("Err = %v, want ErrCorrupt", d.Err())
	}
	// Every later read must return zero values without advancing.
	if got := d.Uvarint(); got != 0 {
		t.Errorf("post-error Uvarint = %d", got)
	}
	if got := d.Float64(); got != 0 {
		t.Errorf("post-error Float64 = %v", got)
	}
	if got := d.String(); got != "" {
		t.Errorf("post-error String = %q", got)
	}
	if got := d.Bool(); got {
		t.Error("post-error Bool = true")
	}
}

func TestDecoderTruncation(t *testing.T) {
	// Build a valid buffer, then check every proper prefix errors rather
	// than panicking.
	var e Encoder
	e.Uvarint(300)
	e.Int(-40)
	e.Float64(2.5)
	e.Bool(true)
	e.String("xyz")
	full := e.Bytes()
	for cut := 0; cut < len(full); cut++ {
		d := NewDecoder(full[:cut])
		d.Uvarint()
		d.Int()
		d.Float64()
		d.Bool()
		_ = d.String()
		if !errors.Is(d.Err(), ErrCorrupt) {
			t.Fatalf("prefix %d/%d: Err = %v, want ErrCorrupt", cut, len(full), d.Err())
		}
	}
}

func TestDecoderBadBool(t *testing.T) {
	d := NewDecoder([]byte{0x02})
	d.Bool()
	if !errors.Is(d.Err(), ErrCorrupt) {
		t.Fatalf("Err = %v, want ErrCorrupt for bool byte 2", d.Err())
	}
}

func TestDecoderLength(t *testing.T) {
	var e Encoder
	e.Uvarint(3)
	e.Float64(1)
	e.Float64(2)
	e.Float64(3)
	d := NewDecoder(e.Bytes())
	if n := d.Length(8); n != 3 || d.Err() != nil {
		t.Fatalf("Length = %d, err %v", n, d.Err())
	}
	// Same prefix but elements claimed wider than the buffer allows.
	d = NewDecoder(e.Bytes())
	if n := d.Length(16); n != 0 || !errors.Is(d.Err(), ErrCorrupt) {
		t.Fatalf("Length(16) = %d, err %v, want ErrCorrupt", n, d.Err())
	}
	// elemSize below 1 is clamped, not a divide-by-zero.
	d = NewDecoder(e.Bytes())
	if n := d.Length(0); n != 3 || d.Err() != nil {
		t.Fatalf("Length(0) = %d, err %v", n, d.Err())
	}
}

func TestBulkPrimitiveRoundTrip(t *testing.T) {
	floats := []float64{0, -1.5, math.Inf(1), math.Copysign(0, -1)}
	bools := []bool{true, false, false, true}
	int32s := []int32{-1, 0, math.MaxInt32, math.MinInt32}
	lists := [][]int32{{3, -4}, nil, {}, {9}}

	var e Encoder
	e.Float64s(floats)
	e.Bools(bools)
	for _, v := range int32s {
		e.Fixed32(v)
	}
	e.Fixed32s(int32s)
	e.Fixed32s(nil)
	e.Int32Lists(lists)
	e.Bools(bools)
	run := e.Fixed32Run(len(int32s), 7)
	for i, v := range int32s {
		e.SetFixed32(run, i, v)
	}
	var spliced Encoder
	spliced.Raw(e.Bytes())

	d := NewDecoder(spliced.Bytes())
	if got := d.Float64s(len(floats)); len(got) != len(floats) ||
		got[1] != -1.5 || !math.IsInf(got[2], 1) || !math.Signbit(got[3]) {
		t.Errorf("Float64s = %v", got)
	}
	if got := d.Bools(len(bools)); len(got) != len(bools) || !got[0] || got[1] || got[2] || !got[3] {
		t.Errorf("Bools = %v", got)
	}
	gotFixed := make([]int32, len(int32s))
	d.Fixed32sInto(gotFixed)
	for i, v := range int32s {
		if gotFixed[i] != v {
			t.Errorf("Fixed32sInto[%d] = %d, want %d", i, gotFixed[i], v)
		}
	}
	if got := d.Fixed32s(); len(got) != len(int32s) || got[3] != math.MinInt32 {
		t.Errorf("Fixed32s = %v", got)
	}
	if got := d.Fixed32s(); got != nil {
		t.Errorf("Fixed32s on empty = %v, want nil", got)
	}
	gotLists := d.Int32Lists(len(lists))
	if len(gotLists) != len(lists) {
		t.Fatalf("Int32Lists = %v", gotLists)
	}
	if l := gotLists[0]; len(l) != 2 || l[0] != 3 || l[1] != -4 {
		t.Errorf("list 0 = %v", l)
	}
	// Zero-length lists decode to nil whether encoded from nil or empty,
	// matching the encoder's single representation of both.
	if gotLists[1] != nil || gotLists[2] != nil {
		t.Errorf("empty lists = %v, %v, want nil", gotLists[1], gotLists[2])
	}
	if l := gotLists[3]; len(l) != 1 || l[0] != 9 {
		t.Errorf("list 3 = %v", l)
	}
	if got := d.BoolBits(len(bools)); len(got) != 1 || got[0] != 0b1001 {
		t.Errorf("BoolBits = %b", got)
	}
	if v := d.Fixed32View(len(int32s)); v.Len() != len(int32s) || v.At(0) != -1 || v.At(2) != math.MaxInt32 || v.At(3) != math.MinInt32 {
		t.Errorf("Fixed32View = %v", v)
	}
	if d.Err() != nil {
		t.Fatalf("Err = %v", d.Err())
	}
	if d.Len() != 0 {
		t.Errorf("Len = %d bytes left over", d.Len())
	}

	// The arena carve must be append-safe: growing one decoded list may not
	// overwrite its neighbor.
	gotLists[0] = append(gotLists[0], 99)
	if len(gotLists[3]) != 1 || gotLists[3][0] != 9 {
		t.Errorf("append to list 0 corrupted list 3: %v", gotLists[3])
	}
}

func TestBulkPrimitiveCorruption(t *testing.T) {
	check := func(name string, f func(d *Decoder)) {
		t.Helper()
		var e Encoder
		e.Float64s([]float64{1, 2})
		d := NewDecoder(e.Bytes())
		f(d)
		if !errors.Is(d.Err(), ErrCorrupt) {
			t.Errorf("%s: Err = %v, want ErrCorrupt", name, d.Err())
		}
	}
	check("Float64s oversized", func(d *Decoder) { d.Float64s(3) })
	check("Float64s negative", func(d *Decoder) { d.Float64s(-1) })
	check("Bools oversized", func(d *Decoder) { d.Bools(17) })
	check("BoolBits oversized", func(d *Decoder) { d.BoolBits(17) })
	check("BoolBits negative", func(d *Decoder) { d.BoolBits(-1) })
	check("Fixed32View oversized", func(d *Decoder) { d.Fixed32View(5) })
	check("Fixed32View negative", func(d *Decoder) { d.Fixed32View(-1) })
	check("Fixed32sInto truncated", func(d *Decoder) { d.Fixed32sInto(make([]int32, 5)) })
	check("Int32Lists oversized", func(d *Decoder) { d.Int32Lists(17) })
	check("Fail", func(d *Decoder) { d.Fail("by hand") })

	// A bool burst with a byte that is neither 0 nor 1.
	d := NewDecoder([]byte{0, 1, 2})
	if got := d.Bools(3); got != nil || !errors.Is(d.Err(), ErrCorrupt) {
		t.Errorf("Bools = %v, err = %v, want nil + ErrCorrupt", got, d.Err())
	}
	d = NewDecoder([]byte{0, 1, 2})
	if got := d.BoolBits(3); got != nil || !errors.Is(d.Err(), ErrCorrupt) {
		t.Errorf("BoolBits = %v, err = %v, want nil + ErrCorrupt", got, d.Err())
	}

	// A list-length column claiming a negative length.
	var e Encoder
	e.Fixed32(-2)
	e.Fixed32(1)
	d = NewDecoder(e.Bytes())
	if got := d.Int32Lists(2); got != nil || !errors.Is(d.Err(), ErrCorrupt) {
		t.Errorf("negative list length: got %v, err = %v", got, d.Err())
	}

	// A length column whose flattened total exceeds the remaining buffer.
	e = Encoder{}
	e.Fixed32(1 << 20)
	d = NewDecoder(e.Bytes())
	if got := d.Int32Lists(1); got != nil || !errors.Is(d.Err(), ErrCorrupt) {
		t.Errorf("oversized flat column: got %v, err = %v", got, d.Err())
	}

	// Bulk reads after a poison return zero values without advancing.
	d = NewDecoder([]byte{0x05})
	d.Float64()
	if d.Float64s(1) != nil || d.Bools(1) != nil || d.BoolBits(1) != nil || d.Fixed32s() != nil ||
		d.Fixed32View(1) != nil || d.Int32Lists(1) != nil {
		t.Error("post-error bulk read returned data")
	}
	probe := []int32{42}
	d.Fixed32sInto(probe)
	if probe[0] != 42 {
		t.Error("post-error Into overwrote its destination")
	}
}

func TestBulkPrimitiveTruncation(t *testing.T) {
	var e Encoder
	e.Float64s([]float64{1, 2, 3})
	e.Bools([]bool{true, false})
	e.Fixed32s([]int32{7, 8})
	e.Int32Lists([][]int32{{1}, {2, 3}})
	e.Bools([]bool{false, true})
	e.Fixed32(5)
	full := e.Bytes()
	for cut := 0; cut < len(full); cut++ {
		d := NewDecoder(full[:cut])
		d.Float64s(3)
		d.Bools(2)
		d.Fixed32s()
		d.Int32Lists(2)
		d.BoolBits(2)
		d.Fixed32View(1)
		if !errors.Is(d.Err(), ErrCorrupt) {
			t.Fatalf("prefix %d/%d: Err = %v, want ErrCorrupt", cut, len(full), d.Err())
		}
	}
}

func TestSealOpenRoundTrip(t *testing.T) {
	payload := []byte("membership, parents, grid state")
	blob := Seal(KindOverlay, payload)
	kind, got, err := Open(blob)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if kind != KindOverlay {
		t.Errorf("kind = %d, want %d", kind, KindOverlay)
	}
	if !bytes.Equal(got, payload) {
		t.Errorf("payload = %q, want %q", got, payload)
	}

	// Sealing the same payload twice is byte-identical.
	if !bytes.Equal(blob, Seal(KindOverlay, payload)) {
		t.Error("Seal is not deterministic")
	}

	// Empty payloads are legal.
	kind, got, err = Open(Seal(KindGroupSet, nil))
	if err != nil || kind != KindGroupSet || len(got) != 0 {
		t.Errorf("empty payload: kind=%d payload=%v err=%v", kind, got, err)
	}
}

func TestOpenRejectsCorruption(t *testing.T) {
	blob := Seal(KindOverlay, []byte("state"))
	cases := map[string][]byte{
		"empty":       {},
		"short":       blob[:headerLen+4],
		"bad magic":   append([]byte("XMTS"), blob[4:]...),
		"bad version": append(append([]byte(magic), 99), blob[5:]...),
	}
	// Truncated payload (header length now exceeds actual payload).
	cases["truncated"] = blob[:len(blob)-1]
	// Single flipped payload byte: CRC must catch it.
	flipped := append([]byte(nil), blob...)
	flipped[headerLen] ^= 0x40
	cases["bit flip"] = flipped
	// Flipped checksum byte.
	badsum := append([]byte(nil), blob...)
	badsum[len(badsum)-1] ^= 0x01
	cases["bad checksum"] = badsum

	for name, data := range cases {
		if _, _, err := Open(data); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Open = %v, want ErrCorrupt", name, err)
		}
	}
}

func TestOpenEveryTruncation(t *testing.T) {
	blob := Seal(KindOverlay, []byte("0123456789abcdef"))
	for cut := 0; cut < len(blob); cut++ {
		if _, _, err := Open(blob[:cut]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation at %d: err = %v, want ErrCorrupt", cut, err)
		}
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.omts")
	blob := Seal(KindOverlay, []byte("round 7"))
	if err := WriteFileAtomic(path, blob); err != nil {
		t.Fatalf("WriteFileAtomic: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	kind, payload, err := Open(data)
	if err != nil || kind != KindOverlay || string(payload) != "round 7" {
		t.Fatalf("read back: kind=%d payload=%q err=%v", kind, payload, err)
	}

	// Overwrite replaces the content and leaves no temp files behind.
	if err := WriteFileAtomic(path, Seal(KindOverlay, []byte("round 8"))); err != nil {
		t.Fatalf("overwrite: %v", err)
	}
	if data, err = os.ReadFile(path); err != nil {
		t.Fatal(err)
	}
	_, payload, err = Open(data)
	if err != nil || string(payload) != "round 8" {
		t.Fatalf("after overwrite: payload=%q err=%v", payload, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("directory has %d entries, want just the snapshot", len(entries))
	}

	// A missing parent directory is an error, not a panic.
	if err := WriteFileAtomic(filepath.Join(dir, "no-such", "x.omts"), blob); err == nil {
		t.Error("WriteFileAtomic into missing dir succeeded")
	}
}

// TestReadFileMissing checks that a missing snapshot file cannot pass for
// an empty one: reading it fails with fs.ErrNotExist, not ErrCorrupt, and
// the empty bytes a reader that ignored the failure would hold do not open.
func TestReadFileMissing(t *testing.T) {
	data, err := os.ReadFile(filepath.Join(t.TempDir(), "absent.omts"))
	if !errors.Is(err, fs.ErrNotExist) || errors.Is(err, ErrCorrupt) {
		t.Fatalf("missing file: err = %v, want fs.ErrNotExist", err)
	}
	if _, _, err := Open(data); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("empty read: err = %v, want ErrCorrupt", err)
	}
}

// TestReadFileCorrupt checks that a file torn by a non-atomic write fails
// to open with ErrCorrupt.
func TestReadFileCorrupt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.omts")
	blob := Seal(KindOverlay, []byte("will be torn"))
	if err := os.WriteFile(path, blob[:len(blob)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(data); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("torn file: err = %v, want ErrCorrupt", err)
	}
}

func TestRotate(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s.omts")
	write := func(p, content string) {
		t.Helper()
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	read := func(p string) string {
		t.Helper()
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatalf("read %s: %v", p, err)
		}
		return string(b)
	}

	// keep=3: path→path.1, path.1→path.2, path.2 dropped off the end.
	write(path, "gen1")
	if err := Rotate(path, 3); err != nil {
		t.Fatal(err)
	}
	write(path, "gen2")
	if err := Rotate(path, 3); err != nil {
		t.Fatal(err)
	}
	write(path, "gen3")
	if err := Rotate(path, 3); err != nil {
		t.Fatal(err)
	}
	write(path, "gen4")

	if got := read(path); got != "gen4" {
		t.Errorf("path = %q", got)
	}
	if got := read(path + ".1"); got != "gen3" {
		t.Errorf("path.1 = %q", got)
	}
	if got := read(path + ".2"); got != "gen2" {
		t.Errorf("path.2 = %q", got)
	}
	if _, err := os.Stat(path + ".3"); !os.IsNotExist(err) {
		t.Errorf("path.3 exists: gen1 should have aged out")
	}

	// keep<=1 is a no-op even with files present.
	if err := Rotate(path, 1); err != nil {
		t.Fatal(err)
	}
	if got := read(path); got != "gen4" {
		t.Errorf("after keep=1 rotate, path = %q", got)
	}

	// Rotating a path that does not exist yet is fine.
	if err := Rotate(filepath.Join(dir, "fresh.omts"), 5); err != nil {
		t.Fatal(err)
	}
}
