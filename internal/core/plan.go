package core

import (
	"fmt"

	"vdnn/internal/cudnnsim"
	"vdnn/internal/dnn"
)

// LayerAlgos is the per-CONV-layer algorithm selection for the three
// convolution kernels of a training step.
type LayerAlgos struct {
	Fwd, BwdData, BwdFilter cudnnsim.ConvAlgo
}

// Plan is the execution plan the executor follows, derived once per run by
// asking the OffloadPolicy about every layer and buffer: which algorithm each
// CONV layer uses (unless chosen greedily online), which feature-map buffers
// are offloaded — keyed by the layer that triggers the offload (the buffer's
// last consumer, per the reference-count rule of Figure 3/7) — and which
// prefetch schedule brings them back.
type Plan struct {
	// PolicyName is the Name() of the policy that produced the plan.
	PolicyName string
	// Baseline marks the Torch-style network-wide allocation discipline; all
	// other policies run under vDNN's dynamic allocate/release runtime.
	Baseline bool

	Algos []LayerAlgos // indexed by layer ID; meaningful for CONV layers
	// GreedyAt marks CONV layers whose algorithms are picked online, at issue
	// time, as the fastest whose workspace fits in free pool memory.
	GreedyAt []bool

	// Prefetch is the resolved prefetch schedule the backward pass follows.
	Prefetch PrefetchMode

	// OffloadAt lists, per trigger layer ID, the buffers that layer offloads
	// when its forward pass runs.
	OffloadAt [][]*dnn.Tensor
	// PrefetchAt lists, per layer ID, the offloaded buffers whose prefetch
	// is launched during that layer's backward pass under the just-in-time
	// schedule (Figure 9): one backward step before the buffer's first
	// backward reader.
	PrefetchAt [][]*dnn.Tensor
	// Compression holds, per Tensor.ID, each offloaded buffer's resolved
	// codec and predicted activation sparsity (the zero decision, CodecNone,
	// for every other buffer); nil when the configuration does not compress
	// (see Config.Compression and CompressionPolicy).
	Compression []codecDecision
	// offloadTotal is the per-iteration offload traffic implied by the plan.
	offloadTotal int64
}

// Offloads reports whether the plan offloads anything at all.
func (p *Plan) Offloads() bool { return p.offloadTotal > 0 }

// buildPlan derives the static plan for one configuration by consulting the
// policy about every CONV layer's algorithms, every feature-extraction
// buffer's offload eligibility, and the prefetch schedule. It is the
// full-layer-range stage plan: under pipeline parallelism each stage
// derives the same plan scoped to its own range.
func buildPlan(net *dnn.Network, cfg Config, pol OffloadPolicy) (*Plan, error) {
	return buildStagePlan(net, cfg, pol, 0, len(net.Layers))
}

// buildStagePlan derives the execution plan of one pipeline stage owning
// layers [lo, hi): the policy is consulted about every in-range CONV
// layer's algorithms, and the structural offload/prefetch rules are scoped
// to the stage — a buffer is offloaded by its last consumer within the
// stage (its in-range feature-extraction consumers offered to the policy)
// and prefetched one step before its first backward reader within the
// stage. Boundary activations consumed by a later stage are never
// offloaded — they are the stage's live outputs, sent over the
// interconnect and kept resident for the stage's own backward pass.
func buildStagePlan(net *dnn.Network, cfg Config, pol OffloadPolicy, lo, hi int) (*Plan, error) {
	switch cfg.Algo {
	case MemOptimal, PerfOptimal, GreedyAlgo:
	default:
		return nil, fmt.Errorf("core: unknown algo mode %v", cfg.Algo)
	}
	_, isBase := pol.(baselineManager)
	p := &Plan{
		PolicyName: pol.Name(),
		Baseline:   isBase,
		Algos:      make([]LayerAlgos, len(net.Layers)),
		GreedyAt:   make([]bool, len(net.Layers)),
		Prefetch:   pol.PrefetchSchedule(net, cfg.Prefetch),
		OffloadAt:  make([][]*dnn.Tensor, len(net.Layers)),
	}
	for _, l := range net.Layers[lo:hi] {
		if l.Kind != dnn.Conv {
			continue
		}
		switch mode := pol.Algorithms(net, l, cfg.Algo); mode {
		case MemOptimal:
			p.Algos[l.ID] = LayerAlgos{cudnnsim.ImplicitGEMM, cudnnsim.ImplicitGEMM, cudnnsim.ImplicitGEMM}
		case PerfOptimal:
			g := l.ConvGeom(net.DType)
			p.Algos[l.ID] = LayerAlgos{
				Fwd:       cudnnsim.FastestAlgo(cfg.Spec, g, cudnnsim.Fwd, -1).Algo,
				BwdData:   cudnnsim.FastestAlgo(cfg.Spec, g, cudnnsim.BwdData, -1).Algo,
				BwdFilter: cudnnsim.FastestAlgo(cfg.Spec, g, cudnnsim.BwdFilter, -1).Algo,
			}
		case GreedyAlgo:
			p.GreedyAt[l.ID] = true
		default:
			return nil, fmt.Errorf("core: policy %q selected unknown algo mode %v for %s",
				pol.Name(), mode, l.Name)
		}
	}

	p.PrefetchAt = make([][]*dnn.Tensor, len(net.Layers))
	firstReader := stageFirstBwdReaders(net, lo, hi)
	var offloaded []*dnn.Tensor
	for _, t := range net.Tensors {
		trigger := stageOffloadTrigger(net, t, pol, lo, hi)
		if trigger == nil {
			continue
		}
		offloaded = append(offloaded, t)
		p.OffloadAt[trigger.ID] = append(p.OffloadAt[trigger.ID], t)
		p.offloadTotal += t.Bytes(net.DType)
		// JIT prefetch: during the backward pass of the layer processed
		// immediately before the buffer's first backward reader. A buffer no
		// backward kernel reads is never fetched back — its device copy is
		// simply never recreated. (In the benchmark networks every offloaded
		// buffer has a reader: even concat branch outputs are read by their
		// in-place ReLU's backward.)
		if f := firstReader[t.ID]; f != nil {
			at := f.ID + 1
			if at >= hi {
				at = hi - 1 // fetched at the stage's very first backward step
			}
			p.PrefetchAt[at] = append(p.PrefetchAt[at], t)
		}
	}
	var err error
	if p.Compression, err = buildCompression(net, cfg, pol, offloaded); err != nil {
		return nil, err
	}
	return p, nil
}

// stageOffloadTrigger decides whether buffer t is offloaded within the
// layer range [lo, hi) and, if so, which layer initiates the transfer. The
// structural rules stay here, out of the policy's hands: classifier-side
// buffers are unmanaged, only in-range feature-extraction consumers are
// offered to the policy, the trigger is the buffer's last in-range consumer
// (the reference-count rule of Figure 3/7, scoped to the stage), and
// buffers any later stage still needs (forward consumers at or past hi) are
// excluded — their device copy must survive the stage's forward walk to
// feed the inter-stage send.
func stageOffloadTrigger(net *dnn.Network, t *dnn.Tensor, pol OffloadPolicy, lo, hi int) *dnn.Layer {
	if t.Producer != nil && t.Producer.Stage == dnn.Classifier {
		return nil // classifier buffers are unmanaged
	}
	qualifies := false
	var trigger *dnn.Layer
	for _, c := range t.Consumer {
		if c.ID >= hi {
			return nil // boundary-out: a later stage still reads it
		}
		if c.ID < lo {
			continue
		}
		trigger = c // consumers are execution-ordered: last in-range wins
		if c.Stage != dnn.FeatureExtraction {
			continue
		}
		if pol.OffloadInput(net, t, c) {
			qualifies = true
		}
	}
	if !qualifies {
		return nil
	}
	return trigger
}

// stageFirstBwdReaders gives, per Tensor.ID, the layer whose backward
// kernels read the buffer first in backward execution order within [lo, hi)
// — its highest-ID reader among the stage's own backward kernels — or nil.
func stageFirstBwdReaders(net *dnn.Network, lo, hi int) []*dnn.Layer {
	m := make([]*dnn.Layer, len(net.Tensors))
	// Layers run in ID order, so the last reader seen is the highest-ID one.
	for _, l := range net.Layers[lo:hi] {
		for _, t := range l.BwdReads() {
			m[t.ID] = l
		}
	}
	return m
}
