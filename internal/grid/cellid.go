package grid

import (
	"fmt"
	"math/bits"
)

// CellID returns the global id of cell idx within ring — ring i holds 2^i
// cells and rings are numbered from the center out, so the id is
// 2^ring - 1 + idx.
func CellID(ring, idx int) int {
	return 1<<uint(ring) - 1 + idx
}

// RingIdx inverts CellID, returning the (ring, idx) pair of a global id.
func RingIdx(id int) (ring, idx int) {
	if id < 0 {
		panic(fmt.Sprintf("grid: negative cell id %d", id))
	}
	// Ring r holds ids [2^r - 1, 2^(r+1) - 1), so id+1 has r+1 bits.
	ring = bits.Len(uint(id)+1) - 1
	return ring, id - (1<<uint(ring) - 1)
}

// CellsInRing returns the number of cells in a ring: 2^ring.
func CellsInRing(ring int) int { return 1 << uint(ring) }

// NumCells returns the total cell count of a grid with rings 0..k:
// 2^(k+1) - 1.
func NumCells(k int) int { return 1<<uint(k+1) - 1 }

// ChildCells returns the two cells of ring+1 aligned with cell (ring, idx):
// indices 2*idx and 2*idx+1.
func ChildCells(idx int) (int, int) { return 2 * idx, 2*idx + 1 }

// ParentCell returns the ring-1 cell aligned with (ring, idx).
func ParentCell(idx int) int { return idx / 2 }
