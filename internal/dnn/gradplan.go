package dnn

import (
	"fmt"
	"sort"
)

// Gradient-map liveness analysis.
//
// During backward propagation the gradient of buffer T (the paper's dY/dX
// maps) is written by the backward kernels of T's consumers and fully
// consumed by the backward kernel of T's producer. The baseline memory
// manager exploits this to allocate only "the minimally required number" of
// gradient buffers and reuse them (Section IV-A, citing [38,39]): for linear
// networks that is the classic two ping-pong buffers sized to the largest
// dY. This file generalizes the analysis to arbitrary fork/join networks:
// liveness intervals over reverse execution order, plus a greedy slot
// assignment (linear-scan register allocation over an interval graph).

// GradInfo describes one gradient buffer (for the aliasing root of a
// feature-map buffer: in-place chains share a Tensor already, and concat
// branch gradients are views of the concat output's gradient).
type GradInfo struct {
	Root  *Tensor
	Bytes int64

	// FirstWriter is the consumer whose backward kernel first touches this
	// gradient (the consumer latest in execution order).
	FirstWriter *Layer
	// LastReader is the producer whose backward kernel last reads it (the
	// producer earliest in execution order across the alias set).
	LastReader *Layer

	// Start/End are the liveness interval endpoints in reverse execution
	// order (step i runs layer Layers[len-1-i]'s backward).
	Start, End int
}

// GradRoot resolves join aliasing: the gradient of a concat branch output
// lives inside the gradient of the concat result, and the gradient of an
// elementwise-add input is the add output's gradient itself.
func GradRoot(t *Tensor) *Tensor {
	for t.GradShare != nil {
		t = t.GradShare
	}
	return t
}

// GradientInfos returns the gradient buffers a training iteration needs,
// indexed by the Tensor.ID of their aliasing root; every other entry is nil.
// The network input has no gradient (frameworks skip gradInput for the data
// layer), and the loss output has no gradient (the loss layer's backward
// *generates* the seed, Equation 1).
//
// The slice is owned by the network and shared between callers: read it, do
// not mutate it or its values.
func GradientInfos(n *Network) []*GradInfo { return n.gradInfos }

// computeGradientInfos is the liveness analysis behind GradientInfos.
func computeGradientInfos(n *Network) []*GradInfo {
	rev := func(l *Layer) int { return len(n.Layers) - 1 - l.ID }
	infos := make([]*GradInfo, len(n.Tensors))
	for _, t := range n.Tensors {
		if t.Producer == nil || len(t.Consumer) == 0 {
			continue // network input or dead-end output (loss)
		}
		root := GradRoot(t)
		if root.Producer == nil {
			continue
		}
		gi := infos[root.ID]
		if gi == nil {
			gi = &GradInfo{Root: root, Bytes: root.Bytes(n.DType), Start: -1, End: -1}
			infos[root.ID] = gi
		}
		// First writer: consumer with the highest layer ID across the alias set.
		for _, c := range t.Consumer {
			if gi.FirstWriter == nil || c.ID > gi.FirstWriter.ID {
				gi.FirstWriter = c
			}
		}
		// Last reader: producer with the lowest layer ID across the alias set.
		if gi.LastReader == nil || t.Producer.ID < gi.LastReader.ID {
			gi.LastReader = t.Producer
		}
	}
	for _, gi := range infos {
		if gi == nil {
			continue
		}
		gi.Start = rev(gi.FirstWriter)
		gi.End = rev(gi.LastReader)
		if gi.Start > gi.End {
			panic(fmt.Sprintf("dnn: gradient for tensor %d has inverted interval [%d,%d]",
				gi.Root.ID, gi.Start, gi.End))
		}
	}
	return infos
}

// GradPlan is the baseline's shared gradient buffer assignment.
type GradPlan struct {
	SlotBytes []int64         // size of each shared buffer
	SlotOf    map[*Tensor]int // gradient root -> slot index
	// Infos lists the planned gradients in assignment order: by interval
	// start, ties by root ID.
	Infos []*GradInfo
}

// TotalBytes is the memory the baseline allocates for all gradient maps.
func (p *GradPlan) TotalBytes() int64 {
	var b int64
	for _, s := range p.SlotBytes {
		b += s
	}
	return b
}

// PlanGradientSlots assigns every gradient buffer to a shared slot such that
// no two gradients with overlapping live intervals share one. Greedy
// linear-scan over intervals; for linear networks this reproduces Torch's
// two shared buffers sized to the maximum dY.
func PlanGradientSlots(n *Network) *GradPlan {
	return PlanGradientSlotsWhere(n, func(*GradInfo) bool { return true })
}

// PlanGradientSlotsWhere plans slots over the gradients accepted by keep.
// The executors use it to scope the shared buffers to the vDNN-managed
// feature-extraction stage.
func PlanGradientSlotsWhere(n *Network, keep func(*GradInfo) bool) *GradPlan {
	var order []*GradInfo
	for _, gi := range n.gradInfos {
		if gi != nil && keep(gi) {
			order = append(order, gi)
		}
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].Start != order[j].Start {
			return order[i].Start < order[j].Start
		}
		return order[i].Root.ID < order[j].Root.ID
	})

	plan := &GradPlan{SlotOf: make(map[*Tensor]int, len(order)), Infos: order}
	type slot struct {
		bytes  int64
		freeAt int // last end step occupied (inclusive)
	}
	var slots []slot
	for _, gi := range order {
		// A slot is reusable when its occupant's interval ended strictly
		// before this gradient starts.
		best := -1
		for i, s := range slots {
			if s.freeAt < gi.Start {
				// Prefer the largest reusable slot so small gradients don't
				// grow fresh ones.
				if best < 0 || slots[i].bytes > slots[best].bytes {
					best = i
				}
			}
		}
		if best < 0 {
			slots = append(slots, slot{})
			best = len(slots) - 1
		}
		if gi.Bytes > slots[best].bytes {
			slots[best].bytes = gi.Bytes
		}
		slots[best].freeAt = gi.End
		plan.SlotOf[gi.Root] = best
	}
	plan.SlotBytes = make([]int64, len(slots))
	for i, s := range slots {
		plan.SlotBytes[i] = s.bytes
	}
	return plan
}

// VerifyGradPlan checks that no two gradients sharing a slot overlap in
// time; used by tests and executor self-checks.
func VerifyGradPlan(p *GradPlan) error {
	bySlot := make([][]*GradInfo, len(p.SlotBytes))
	for _, gi := range p.Infos {
		s := p.SlotOf[gi.Root]
		bySlot[s] = append(bySlot[s], gi)
	}
	for s, gis := range bySlot {
		sort.Slice(gis, func(i, j int) bool { return gis[i].Start < gis[j].Start })
		for i := 1; i < len(gis); i++ {
			if gis[i].Start <= gis[i-1].End {
				return fmt.Errorf("dnn: slot %d overlap: tensor %d [%d,%d] vs tensor %d [%d,%d]",
					s, gis[i-1].Root.ID, gis[i-1].Start, gis[i-1].End,
					gis[i].Root.ID, gis[i].Start, gis[i].End)
			}
		}
		for _, gi := range gis {
			if gi.Bytes > p.SlotBytes[s] {
				return fmt.Errorf("dnn: slot %d too small for tensor %d", s, gi.Root.ID)
			}
		}
	}
	return nil
}
