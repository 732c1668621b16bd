package core

import (
	"fmt"

	"vdnn/internal/compress"
	"vdnn/internal/dnn"
	"vdnn/internal/sim"
)

// CompressionPolicy is an optional OffloadPolicy extension: a policy that
// implements it is consulted per offloaded buffer and may veto or override
// the configured codec (returning compress.CodecNone leaves that buffer's
// transfers uncompressed). Like every policy hook it must be a deterministic
// pure function of its arguments — the decision lands in the plan and in
// cache-keyed results.
type CompressionPolicy interface {
	// Compress selects the codec for buffer t, which the plan offloads.
	// requested is the Config's codec; returning it unchanged defers to the
	// configuration.
	Compress(net *dnn.Network, t *dnn.Tensor, requested compress.Codec) compress.Codec
}

// codecDecision is one buffer's resolved compression: the codec its
// transfers run through and the activation sparsity the codec will find.
type codecDecision struct {
	codec    compress.Codec
	sparsity float64
}

// activationSparsity predicts, for every buffer, the zero-value sparsity of
// its contents at offload time under the given profile. Offload happens at a
// buffer's LAST consumer, after any in-place activation has overwritten it,
// so the prediction walks the layers in execution order and lets each
// producer (in-place or not) set its output buffer's sparsity:
//
//   - ReLU outputs are sparse, growing with depth (the cDMA observation);
//   - pooling keeps a profile-configured fraction of its input's sparsity;
//   - concat carries the byte-weighted average of its branches;
//   - elementwise add multiplies its inputs' sparsities (a sum is zero only
//     where every addend is);
//   - everything else (CONV/FC/BN/LRN pre-activation outputs, the input
//     batch, dropout masks' hosts) is dense.
//
// The result is indexed by Tensor.ID.
func activationSparsity(net *dnn.Network, prof compress.Profile) []float64 {
	sp := make([]float64, len(net.Tensors))
	depth := float64(len(net.Layers) - 1)
	if depth <= 0 {
		depth = 1
	}
	for _, l := range net.Layers {
		var s float64
		switch l.Kind {
		case dnn.ReLU:
			s = prof.ReLU(float64(l.ID) / depth)
		case dnn.Pool:
			s = prof.Pool(sp[l.In().ID])
		case dnn.Concat:
			var bytes, weighted float64
			for _, in := range l.Inputs {
				b := float64(in.Bytes(net.DType))
				bytes += b
				weighted += b * sp[in.ID]
			}
			if bytes > 0 {
				s = weighted / bytes
			}
		case dnn.Add:
			s = 1
			for _, in := range l.Inputs {
				s *= sp[in.ID]
			}
		default:
			s = 0
		}
		sp[l.Output.ID] = s
	}
	return sp
}

// buildCompression resolves the plan's per-buffer codec decisions, indexed
// by Tensor.ID. Called once per plan, after the offload set is known;
// returns nil when the configuration does not compress. Only buffers the
// plan offloads get a decision — nothing else ever crosses the wire.
// Weights (the OffloadWeights extension) stay uncompressed: they are dense,
// the cDMA paper's own observation for why the engine targets activations.
func buildCompression(net *dnn.Network, cfg Config, pol OffloadPolicy, offloaded []*dnn.Tensor) ([]codecDecision, error) {
	cc := cfg.Compression.WithDefaults() // callers pass normalized configs; direct buildPlan callers (tests) may not
	if !cc.Enabled() {
		return nil, nil
	}
	prof, ok := compress.ProfileByName(cc.Sparsity)
	if !ok {
		return nil, fmt.Errorf("core: unknown sparsity profile %q", cc.Sparsity)
	}
	sp := activationSparsity(net, prof)
	cp, hasHook := pol.(CompressionPolicy)
	decisions := make([]codecDecision, len(net.Tensors))
	for _, t := range offloaded {
		codec := cc.Codec
		if hasHook {
			codec = cp.Compress(net, t, codec)
			if err := codec.Validate(); err != nil {
				return nil, err
			}
		}
		decisions[t.ID] = codecDecision{codec: codec, sparsity: sp[t.ID]}
	}
	return decisions, nil
}

// codecCost returns the wire size and codec latencies of transferring buffer
// t under the plan. Pass-through (no codec, or an incompressible buffer)
// returns (raw, zero cost).
func (e *runtime) codecCost(t *dnn.Tensor, raw int64) compress.Cost {
	if e.plan.Compression == nil {
		return compress.Cost{WireBytes: raw}
	}
	d := e.plan.Compression[t.ID]
	return d.codec.Cost(raw, e.net.DType.Size(), d.sparsity, e.cfg.Spec.EffDRAMBps())
}

// offloadCompressed launches one buffer's D2H transfer through the codec
// path: a compression pass on the D2H DMA engine (when the codec shrinks the
// buffer) feeding the wire-sized transfer. Returns the transfer op.
func (e *runtime) offloadCompressed(label string, t *dnn.Tensor, raw int64, dep *sim.Op) *sim.Op {
	c := e.codecCost(t, raw)
	if c.WireBytes < raw {
		dep = e.dev.Compress("CMP:"+label, c.Compress, raw, dep)
		e.compressTime += c.Compress
	}
	e.offRawBytes += raw
	return e.dev.Offload("OFF:"+label, c.WireBytes, dep)
}

// prefetchCompressed launches one buffer's H2D transfer through the codec
// path: the wire-sized transfer followed by a decompression pass on the H2D
// DMA engine. The returned op is the one consumers must depend on — the
// decompression when the buffer came back compressed, the transfer itself
// otherwise — so backward kernels pay the expansion before use. deps order
// the transfer itself (the on-demand path serializes behind queued compute).
func (e *runtime) prefetchCompressed(label string, t *dnn.Tensor, raw int64, deps ...*sim.Op) *sim.Op {
	c := e.codecCost(t, raw)
	e.preRawBytes += raw
	op := e.dev.Prefetch(label, c.WireBytes, deps...)
	if c.WireBytes < raw {
		op = e.dev.Decompress("DEC:"+label, c.Decompress, raw, op)
		e.decompressTime += c.Decompress
	}
	return op
}
