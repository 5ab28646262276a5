package tree

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// treeJSON is the wire form of a Tree.
type treeJSON struct {
	Root    int     `json:"root"`
	Parents []int32 `json:"parents"`
}

// MarshalJSON implements json.Marshaler.
func (t *Tree) MarshalJSON() ([]byte, error) {
	return json.Marshal(treeJSON{Root: t.Root(), Parents: t.parent})
}

// UnmarshalJSON implements json.Unmarshaler and validates the decoded tree.
func (t *Tree) UnmarshalJSON(data []byte) error {
	var w treeJSON
	if err := json.Unmarshal(data, &w); err != nil {
		return fmt.Errorf("tree: decoding JSON: %w", err)
	}
	decoded, err := FromParents(w.Root, w.Parents, 0)
	if err != nil {
		return fmt.Errorf("tree: invalid JSON tree: %w", err)
	}
	*t = *decoded
	return nil
}

// binaryMagic identifies the binary tree framing.
var binaryMagic = [4]byte{'O', 'M', 'T', '1'}

// WriteBinary writes the tree in a compact binary form: magic, uvarint n,
// uvarint root, then zig-zag varint delta-encoded parent entries. Delta
// coding works well here because algorithms attach near-contiguous ranges
// under shared parents.
func (t *Tree) WriteBinary(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(binaryMagic[:]); err != nil {
		return fmt.Errorf("tree: writing magic: %w", err)
	}
	var buf [binary.MaxVarintLen64]byte
	writeUvarint := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	if err := writeUvarint(uint64(len(t.parent))); err != nil {
		return fmt.Errorf("tree: writing length: %w", err)
	}
	if err := writeUvarint(uint64(t.root)); err != nil {
		return fmt.Errorf("tree: writing root: %w", err)
	}
	prev := int64(0)
	for _, p := range t.parent {
		delta := int64(p) - prev
		n := binary.PutVarint(buf[:], delta)
		if _, err := bw.Write(buf[:n]); err != nil {
			return fmt.Errorf("tree: writing parents: %w", err)
		}
		prev = int64(p)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("tree: flushing: %w", err)
	}
	return nil
}

// ReadBinary decodes a tree written by WriteBinary and validates it.
func ReadBinary(r io.Reader) (*Tree, error) {
	br := bufio.NewReader(r)
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("tree: reading magic: %w", err)
	}
	if magic != binaryMagic {
		return nil, errors.New("tree: bad magic in binary stream")
	}
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("tree: reading length: %w", err)
	}
	const maxNodes = 1 << 31
	if n == 0 || n > maxNodes {
		return nil, fmt.Errorf("tree: implausible node count %d", n)
	}
	root, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("tree: reading root: %w", err)
	}
	if root >= n {
		return nil, fmt.Errorf("tree: root %d out of range", root)
	}
	// The header's count is a claim, not a size: the array grows as entries
	// arrive, so a stream that lies about n fails at its first missing entry
	// instead of allocating n entries up front.
	parents := make([]int32, 0, min(n, 1<<16))
	prev := int64(0)
	for i := uint64(0); i < n; i++ {
		delta, err := binary.ReadVarint(br)
		if err != nil {
			return nil, fmt.Errorf("tree: reading parent %d: %w", i, err)
		}
		prev += delta
		if prev < int64(NoParent) || prev >= int64(n) {
			return nil, fmt.Errorf("tree: parent %d out of range at node %d", prev, i)
		}
		parents = append(parents, int32(prev))
	}
	return FromParents(int(root), parents, 0)
}

// WriteDOT renders the tree in Graphviz DOT syntax. label may be nil; when
// given it supplies per-node labels. Intended for small trees (diagrams,
// debugging); the output grows linearly with N.
func (t *Tree) WriteDOT(w io.Writer, label func(i int) string) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "digraph multicast {"); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(bw, "  %d [shape=doublecircle];\n", t.Root()); err != nil {
		return err
	}
	if label != nil {
		for i := 0; i < t.N(); i++ {
			if _, err := fmt.Fprintf(bw, "  %d [label=%q];\n", i, label(i)); err != nil {
				return err
			}
		}
	}
	for i, p := range t.parent {
		if p >= 0 {
			if _, err := fmt.Fprintf(bw, "  %d -> %d;\n", p, i); err != nil {
				return err
			}
		}
	}
	if _, err := fmt.Fprintln(bw, "}"); err != nil {
		return err
	}
	return bw.Flush()
}
