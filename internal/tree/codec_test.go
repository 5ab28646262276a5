package tree

import (
	"bytes"
	"encoding/json"
	"runtime"
	"strings"
	"testing"

	"omtree/internal/rng"
)

func randomTree(t *testing.T, seed uint64, n int) *Tree {
	t.Helper()
	r := rng.New(seed)
	b, err := NewBuilder(n, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < n; i++ {
		b.MustAttach(i, r.Intn(i))
	}
	tr, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func treesEqual(a, b *Tree) bool {
	if a.Root() != b.Root() || a.N() != b.N() {
		return false
	}
	for i := 0; i < a.N(); i++ {
		if a.Parent(i) != b.Parent(i) {
			return false
		}
	}
	return true
}

func TestJSONRoundTrip(t *testing.T) {
	orig := randomTree(t, 1, 50)
	data, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	var decoded Tree
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	if !treesEqual(orig, &decoded) {
		t.Error("JSON round trip changed the tree")
	}
}

func TestJSONRejectsInvalid(t *testing.T) {
	var tr Tree
	inputs := []string{
		`{"root": 0, "parents": [-1, 5]}`, // parent out of range
		`{"root": 0, "parents": [-1, 2, 1]}`,
		`{"root": 3, "parents": [-1]}`,
		`{"root": 4294967296, "parents": [-1]}`, // root wraps to 0 as an int32
		`not json`,
	}
	for _, in := range inputs {
		if err := json.Unmarshal([]byte(in), &tr); err == nil {
			t.Errorf("accepted %q", in)
		}
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	for _, n := range []int{1, 2, 17, 1000} {
		orig := randomTree(t, uint64(n), n)
		var buf bytes.Buffer
		if err := orig.WriteBinary(&buf); err != nil {
			t.Fatal(err)
		}
		decoded, err := ReadBinary(&buf)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !treesEqual(orig, decoded) {
			t.Errorf("n=%d: binary round trip changed the tree", n)
		}
	}
}

func TestBinaryCompactness(t *testing.T) {
	// Delta coding should keep the encoding well under 4 bytes/node for
	// builder-ordered trees.
	orig := randomTree(t, 7, 10000)
	var buf bytes.Buffer
	if err := orig.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() > 4*10000 {
		t.Errorf("encoding is %d bytes for 10000 nodes", buf.Len())
	}
}

func TestBinaryRejectsCorrupt(t *testing.T) {
	orig := randomTree(t, 3, 10)
	var buf bytes.Buffer
	if err := orig.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	if _, err := ReadBinary(bytes.NewReader(data[:3])); err == nil {
		t.Error("accepted truncated magic")
	}
	bad := append([]byte(nil), data...)
	bad[0] = 'X'
	if _, err := ReadBinary(bytes.NewReader(bad)); err == nil {
		t.Error("accepted bad magic")
	}
	if _, err := ReadBinary(bytes.NewReader(data[:len(data)-2])); err == nil {
		t.Error("accepted truncated stream")
	}
	if _, err := ReadBinary(bytes.NewReader(nil)); err == nil {
		t.Error("accepted empty stream")
	}
}

// TestBinaryHugeHeaderAllocatesLittle feeds a 10-byte stream whose header
// claims 2^31 nodes (the FuzzCodecRoundTrip seed huge_header): the decoder
// must reject it without allocating anything near the claimed size.
func TestBinaryHugeHeaderAllocatesLittle(t *testing.T) {
	data := []byte("OMT1\x80\x80\x80\x80\x08\x00") // magic, n = 2^31, root 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadBinary(bytes.NewReader(data))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("accepted a stream with no parent entries")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("rejecting a 10-byte stream allocated %d bytes", got)
	}
}

func TestWriteDOT(t *testing.T) {
	tr := randomTree(t, 5, 5)
	var b strings.Builder
	if err := tr.WriteDOT(&b, func(i int) string { return "node" }); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"digraph", "doublecircle", "->", "node"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q:\n%s", want, out)
		}
	}
	var noLabels strings.Builder
	if err := tr.WriteDOT(&noLabels, nil); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(noLabels.String(), "label") {
		t.Error("labels present without label func")
	}
}
