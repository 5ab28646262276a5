package core

import "math/bits"

// slotSet is a BuildState's membership: one bit per slot, plus a rank
// index holding the number of set bits before each 64-slot word. With the
// index fresh, a member's rank — the set slots below it — is one lookup and
// one popcount; slot 0 (the source) is always set, so a live slot's rank is
// its dense node id in the exported tree. reindex rebuilds the index; any
// later add or remove leaves it stale until the next reindex.
type slotSet struct {
	words []uint64
	ranks []int32
}

// newSlotSet returns a set over slots [0, slots) holding slot 0 only.
func newSlotSet(slots int) slotSet {
	s := slotSet{words: make([]uint64, (slots+63)/64)}
	s.words[0] = 1
	return s
}

// grow makes room for slots [0, slots); new slots start clear.
func (s *slotSet) grow(slots int) {
	for len(s.words)*64 < slots {
		s.words = append(s.words, 0)
	}
}

func (s *slotSet) has(slot int) bool {
	w := slot >> 6
	return w < len(s.words) && s.words[w]&(1<<uint(slot&63)) != 0
}

func (s *slotSet) add(slot int)    { s.words[slot>>6] |= 1 << uint(slot&63) }
func (s *slotSet) remove(slot int) { s.words[slot>>6] &^= 1 << uint(slot&63) }

// reindex rebuilds the rank index and returns the set slots other than 0 in
// ascending order, in a fresh slice of capacity n: one pass over the words,
// O(slots/64 + members).
func (s *slotSet) reindex(n int) []int32 {
	if cap(s.ranks) < len(s.words) {
		s.ranks = make([]int32, len(s.words))
	}
	s.ranks = s.ranks[:len(s.words)]
	out := make([]int32, 0, n)
	var seen int32
	for w, word := range s.words {
		s.ranks[w] = seen
		seen += int32(bits.OnesCount64(word))
		if w == 0 {
			word &^= 1 // slot 0, the source
		}
		for word != 0 {
			out = append(out, int32(w<<6+bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
	return out
}

// rank returns the number of set slots below slot. It needs a fresh index.
func (s *slotSet) rank(slot int) int32 {
	w := slot >> 6
	return s.ranks[w] + int32(bits.OnesCount64(s.words[w]&(1<<uint(slot&63)-1)))
}

// memoryBytes is the set's resident size, rank index included.
func (s *slotSet) memoryBytes() int64 {
	return 8*int64(cap(s.words)) + 4*int64(cap(s.ranks))
}
