package coords

import (
	"encoding/binary"
	"fmt"

	"omtree/internal/geom"
	"omtree/internal/snapshot"
)

// EncodeTo appends the model's full serialized form: the configuration,
// the epoch clock, and every node's kinetic state. Velocities are stored
// directly rather than re-drawn from (seed, id) — Track derives a node's
// velocity only on first tracking, and a restored model must continue the
// same trajectories, not restart them.
func (m *DriftModel) EncodeTo(e *snapshot.Encoder) {
	e.Uvarint(m.cfg.Seed)
	e.Float64(m.cfg.VelocityMean)
	e.Float64(m.cfg.JumpRate)
	e.Float64(m.cfg.JumpMean)
	e.Float64(m.cfg.InflationPerEpoch)
	e.Float64(m.cfg.Bound)
	e.Int(m.epoch)
	e.Uvarint(uint64(len(m.nodes)))
	for _, n := range m.nodes {
		e.Bool(n.tracked)
		e.Float64(n.truePos.X)
		e.Float64(n.truePos.Y)
		e.Float64(n.est.X)
		e.Float64(n.est.Y)
		e.Float64(n.vel.X)
		e.Float64(n.vel.Y)
		e.Int(n.estEpoch)
	}
}

// EncodedSizeBound returns an upper bound on the bytes EncodeTo writes:
// fixed-width fields count exactly and every varint counts at its widest,
// so a checkpoint can size its buffer once.
func (m *DriftModel) EncodedSizeBound() int {
	const v, f = binary.MaxVarintLen64, 8
	return v + 5*f + 2*v + len(m.nodes)*(1+6*f+v)
}

// DecodeDriftModel reads a model written by EncodeTo.
func DecodeDriftModel(d *snapshot.Decoder) (*DriftModel, error) {
	cfg := DriftConfig{
		Seed:              d.Uvarint(),
		VelocityMean:      d.Float64(),
		JumpRate:          d.Float64(),
		JumpMean:          d.Float64(),
		InflationPerEpoch: d.Float64(),
		Bound:             d.Float64(),
	}
	epoch := d.Int()
	count := d.Length(1)
	nodes := make([]driftNode, count)
	for i := range nodes {
		nodes[i] = driftNode{
			tracked:  d.Bool(),
			truePos:  geom.Point2{X: d.Float64(), Y: d.Float64()},
			est:      geom.Point2{X: d.Float64(), Y: d.Float64()},
			vel:      geom.Point2{X: d.Float64(), Y: d.Float64()},
			estEpoch: d.Int(),
		}
	}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("drift model: %w", err)
	}
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("%w: drift model: %v", snapshot.ErrCorrupt, err)
	}
	return &DriftModel{cfg: cfg, epoch: epoch, nodes: nodes}, nil
}
