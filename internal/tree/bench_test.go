package tree

import (
	"bytes"
	"testing"

	"omtree/internal/rng"
)

func benchTree(b *testing.B, n int) *Tree {
	b.Helper()
	r := rng.New(uint64(n))
	bld, err := NewBuilder(n, 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	for i := 1; i < n; i++ {
		bld.MustAttach(i, r.Intn(i))
	}
	t, err := bld.Build()
	if err != nil {
		b.Fatal(err)
	}
	t.Prepare()
	return t
}

func BenchmarkBuilderAttach(b *testing.B) {
	const n = 100000
	r := rng.New(1)
	parents := make([]int, n)
	for i := 1; i < n; i++ {
		parents[i] = r.Intn(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bld, err := NewBuilder(n, 0, 0)
		if err != nil {
			b.Fatal(err)
		}
		for v := 1; v < n; v++ {
			bld.MustAttach(v, parents[v])
		}
		if _, err := bld.Build(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDelays(b *testing.B) {
	t := benchTree(b, 100000)
	dist := func(i, j int) float64 { return 1 }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = t.Delays(dist)
	}
}

func BenchmarkValidate(b *testing.B) {
	t := benchTree(b, 100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := t.Validate(0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBinaryCodec(b *testing.B) {
	t := benchTree(b, 100000)
	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := t.WriteBinary(&buf); err != nil {
			b.Fatal(err)
		}
		if _, err := ReadBinary(&buf); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(buf.Len()))
}
