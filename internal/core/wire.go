package core

import (
	"time"

	"omtree/internal/bisect"
	"omtree/internal/grid"
	"omtree/internal/par"
)

// connector abstracts the dimension-specific pieces of the core wiring: the
// polar radius of a node, the representative score, and the in-cell
// Bisection runs. Node ids follow the Result convention (0 = source).
type connector interface {
	// repScore ranks members as cell representatives: the distance to the
	// center of the cell's inner arc ("the point that is closest to the
	// center on the inner arc of the segment", §III-B). Smaller is better.
	repScore(cellID int, id int32) float64
	// relayScore ranks members as the next-ring relay of the binary
	// variant: the distance to the center of the cell's outer arc, which
	// lies between the two child-cell representatives. Smaller is better.
	relayScore(cellID int, id int32) float64
	// pointDist2 is the squared Euclidean distance between two nodes.
	pointDist2(a, b int32) float64
	// connectNatural runs the full-degree Bisection over the member nodes
	// idx inside the given grid cell with src as local source.
	connectNatural(idx []int32, src int32, cellID int)
	// connectBinary is the out-degree-2 Bisection counterpart.
	connectBinary(idx []int32, src int32, cellID int)
}

// cellGroups is the receivers-by-cell index: CSR over global cell ids.
// order holds receiver node ids (>= 1); cell c owns
// order[start[c]:start[c+1]].
type cellGroups struct {
	start []int32
	order []int32
}

// wireCells attaches every node: the core edges between representatives,
// from the source (ring 0's representative) outward, plus the in-cell
// Bisection runs, one cell at a time over the worker pool. Interior cells
// (rings 1..k-1) must be occupied. Cells write disjoint parent entries (see
// wireCell), so the finished array does not depend on the order workers
// take cells in; one worker takes them in id order, which keeps serial
// trace timelines byte-stable. The pool gauges are published only when
// several workers run.
func wireCells(sink bisect.Attacher, k int, g cellGroups, reps []int32, conn connector, variant Variant, workers int, in instr) {
	endWire := in.phase("build/wire")
	defer endWire()
	in = in.wiring()
	numCells := grid.NumCells(k)
	if workers == 1 || !in.obs.Enabled() {
		par.Cells(workers, numCells, func(_, c int) {
			wireCell(sink, k, c, g, reps, conn, variant, in)
		})
		return
	}
	// Per-worker busy time and cell counts feed the utilization and skew
	// gauges. Each worker writes only its own slot; par.Cells's WaitGroup
	// publishes the slices to this goroutine.
	wireStart := time.Now()
	busyNs := make([]int64, workers)
	cellCnt := make([]int64, workers)
	par.Cells(workers, numCells, func(w, c int) {
		t0 := time.Now()
		wireCell(sink, k, c, g, reps, conn, variant, in)
		busyNs[w] += int64(time.Since(t0))
		cellCnt[w]++
	})
	wall := time.Since(wireStart).Seconds()
	var busyTotal, maxCells int64
	for w := 0; w < workers; w++ {
		busyTotal += busyNs[w]
		if cellCnt[w] > maxCells {
			maxCells = cellCnt[w]
		}
	}
	reg := in.obs
	if wall > 0 {
		reg.Gauge("build/wire/worker_utilization").Set(
			float64(busyTotal) / 1e9 / (wall * float64(workers)))
	}
	mean := float64(numCells) / float64(workers)
	reg.Gauge("build/wire/cells_per_worker_max").Set(float64(maxCells))
	reg.Gauge("build/wire/cells_per_worker_skew").Set(float64(maxCells) / mean)
}

// wireCell wires one grid cell: the core edges from the cell's
// representative down to the aligned next-ring representatives, plus the
// in-cell Bisection over the remaining members.
//
// Each node is attached by exactly one cell — members by their own cell,
// representatives by the parent-ring cell — and the in-place shuffles below
// (and inside the Bisection fan-outs) stay within this cell's slice of
// g.order, so distinct cells touch disjoint memory and may run concurrently
// against a concurrency-tolerant Attacher.
func wireCell(b bisect.Attacher, k, id int, g cellGroups, reps []int32, conn connector, variant Variant, in instr) {
	wireCellMembers(b, k, id, g.order[g.start[id]:g.start[id+1]], reps, conn, variant, in)
}

// wireCellMembers is wireCell over an explicit member slice: the shared entry
// point of the full builds (handing out slices of the CSR order array) and
// the incremental BuildState path (handing out scratch copies of its
// persistent per-cell member lists, which wiring must not permute). members
// is the cell's full membership including its representative; it is shuffled
// in place.
func wireCellMembers(b bisect.Attacher, k, id int, members []int32, reps []int32, conn connector, variant Variant, in instr) {
	ring, idx := grid.RingIdx(id)
	var repNode int32
	if ring == 0 {
		repNode = 0
	} else {
		repNode = reps[id]
		if repNode < 0 {
			return // empty outermost-ring cell
		}
	}

	if ring > 0 {
		// Exclude the representative (attached while processing its parent
		// ring's cell).
		for p, v := range members {
			if v == repNode {
				members[0], members[p] = members[p], members[0]
				break
			}
		}
		members = members[1:]
	}

	var childReps []int32
	if ring < k {
		c1, c2 := grid.ChildCells(idx)
		for _, child := range [2]int{grid.CellID(ring+1, c1), grid.CellID(ring+1, c2)} {
			if reps[child] >= 0 {
				childReps = append(childReps, reps[child])
			}
		}
	}

	// Per-cell span: dominated by the in-cell Bisection fan-out. The wiring
	// pass resolved it once (instr.wiring); span mutation is atomic, so
	// concurrent cells share one accumulator safely, and with no registry
	// attached this costs two nil checks per cell. The matching trace
	// instant goes through the recorder's lock.
	in.cell(id, repNode)
	sp := in.bisect.Start()
	switch variant {
	case VariantNatural:
		for _, cr := range childReps {
			b.MustAttach(int(cr), int(repNode))
		}
		conn.connectNatural(members, repNode, id)
	case VariantHybrid:
		// Natural core wiring, binary in-cell fan-out: 2 + 2 = 4.
		for _, cr := range childReps {
			b.MustAttach(int(cr), int(repNode))
		}
		conn.connectBinary(members, repNode, id)
	default:
		wireBinaryCell(b, conn, repNode, members, childReps, id)
	}
	sp.End()
}

// wireBinaryCell realizes the three cases of §IV-A for one cell in the
// out-degree-2 variant. rep is attached; members excludes rep; childReps
// are the (at most two) representatives of the aligned next-ring cells.
func wireBinaryCell(b bisect.Attacher, conn connector, rep int32, members, childReps []int32, cellID int) {
	if len(childReps) == 0 {
		// Leaf cell: no relay duty, the representative is a plain local
		// source.
		conn.connectBinary(members, rep, cellID)
		return
	}
	switch len(members) {
	case 0:
		// Case 1: the representative relays the next ring itself.
		for _, cr := range childReps {
			b.MustAttach(int(cr), int(rep))
		}
	case 1:
		// Case 2: the single extra member relays the next ring.
		b.MustAttach(int(members[0]), int(rep))
		for _, cr := range childReps {
			b.MustAttach(int(cr), int(members[0]))
		}
	default:
		// Case 3: one member becomes the in-cell Bisection source, another
		// (nearest the outer arc center, between the two child-cell
		// representatives) relays the next ring.
		bi := 0
		bScore := conn.relayScore(cellID, members[0])
		for p := 1; p < len(members); p++ {
			if s := conn.relayScore(cellID, members[p]); s < bScore || (s == bScore && members[p] < members[bi]) {
				bi, bScore = p, s
			}
		}
		relay := members[bi]
		members[bi] = members[len(members)-1]
		members = members[:len(members)-1]

		ai := 0
		aD := conn.pointDist2(members[0], rep)
		for p := 1; p < len(members); p++ {
			if d := conn.pointDist2(members[p], rep); d < aD || (d == aD && members[p] < members[ai]) {
				ai, aD = p, d
			}
		}
		local := members[ai]
		members[ai] = members[len(members)-1]
		members = members[:len(members)-1]

		b.MustAttach(int(local), int(rep))
		b.MustAttach(int(relay), int(rep))
		for _, cr := range childReps {
			b.MustAttach(int(cr), int(relay))
		}
		conn.connectBinary(members, local, cellID)
	}
}

// coreDelay returns the longest source-to-representative delay — the
// paper's "Core" column. delays is indexed by node id; reps holds node ids.
func coreDelay(delays []float64, reps []int32) float64 {
	var maxDelay float64
	for _, rep := range reps {
		if rep < 0 {
			continue
		}
		if delays[rep] > maxDelay {
			maxDelay = delays[rep]
		}
	}
	return maxDelay
}

func maxOf(xs []float64) float64 {
	var m float64
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
