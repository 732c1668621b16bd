package core

import (
	"fmt"

	"vdnn/internal/cudnnsim"
	"vdnn/internal/dnn"
	"vdnn/internal/gpu"
	"vdnn/internal/memalloc"
	"vdnn/internal/partition"
	"vdnn/internal/sim"
)

// Pipeline parallelism (Config.Stages > 1): the stage axis of the trainer's
// grid (trainer.go).
//
// The network's layer sequence is split into contiguous stages, one device
// per stage, and each iteration's minibatch into Config.MicroBatches
// micro-batches that stream through the stages GPipe-style: a fill phase
// while the first micro-batches propagate forward, a steady state where
// every stage works on a different micro-batch, and a drain during backward.
// Each stage runs the full vDNN runtime on its own layers — per-stage
// offload/prefetch under the configured OffloadPolicy, per-stage memory
// pool, per-stage codec decisions — while the boundary activations
// (forward) and boundary gradients (backward) cross the Topology's
// interconnect, contending with that offload traffic on the shared
// root-complex channels. Activation sends go through the compressing DMA
// engine when Config.Compression is active; gradients move dense (the cDMA
// observation: sparsity lives in activations).

// stageBoundary is the single feature map crossing between stage b and
// stage b+1, with its resolved activation codec (CodecNone means the
// transfer moves raw bytes).
type stageBoundary struct {
	t     *dnn.Tensor
	codec codecDecision
}

// pipelineStages derives the stage partition of a pipeline configuration:
// explicit Config.StageCuts when given, otherwise the balanced-by-cost
// partitioner over the allowed cut positions. A cut position is allowed when
// exactly one live feature map crosses it and that map's gradient is its own
// (no concat/add gradient aliasing across the boundary) — the single
// activation/gradient hand-off the inter-stage transfer machinery models.
func pipelineStages(net *dnn.Network, cfg Config, pol OffloadPolicy) ([]partition.Stage, []stageBoundary, error) {
	n := len(net.Layers)
	allowed, crossing := allowedCuts(net)

	var parts []partition.Stage
	if cfg.StageCuts != "" {
		cuts, err := partition.ParseCuts(cfg.StageCuts)
		if err != nil {
			return nil, nil, err
		}
		if len(cuts)+1 != cfg.Stages {
			return nil, nil, fmt.Errorf("core: %d stage cuts define %d stages, Config.Stages is %d",
				len(cuts), len(cuts)+1, cfg.Stages)
		}
		parts, err = partition.FromCuts(n, cuts, allowed)
		if err != nil {
			return nil, nil, err
		}
	} else {
		costs := make([]float64, n)
		for i, l := range net.Layers {
			costs[i] = layerCostEstimate(cfg.Spec, net, l, cfg.Algo)
		}
		var err error
		parts, err = partition.Balanced(costs, cfg.Stages, allowed)
		if err != nil {
			return nil, nil, err
		}
	}
	if err := partition.Verify(parts, n); err != nil {
		return nil, nil, err
	}

	bounds := make([]stageBoundary, len(parts)-1)
	for b := range bounds {
		bounds[b] = stageBoundary{t: crossing[parts[b].Hi]}
	}
	if err := resolveBoundaryCodecs(net, cfg, pol, bounds); err != nil {
		return nil, nil, err
	}
	return parts, bounds, nil
}

// allowedCuts computes the valid stage-boundary positions and, for each, the
// crossing tensor. Position i (a boundary immediately before layer i) is
// allowed when exactly one tensor is live across it — produced by a layer
// below i, still consumed at or above i — the network input crosses nowhere,
// and the crossing tensor owns its gradient (GradRoot(t) == t with gradient
// info, so a dense dX can be handed back across the boundary).
func allowedCuts(net *dnn.Network) (allowed []bool, crossing []*dnn.Tensor) {
	n := len(net.Layers)
	allowed = make([]bool, n)
	crossing = make([]*dnn.Tensor, n+1)
	gradInfos := dnn.GradientInfos(net)
	for i := 1; i < n; i++ {
		var cross *dnn.Tensor
		count := 0
		inputLive := false
		for _, t := range net.Tensors {
			live := false
			for _, c := range t.Consumer {
				if c.ID >= i {
					live = true
					break
				}
			}
			if !live {
				continue
			}
			if t.Producer == nil {
				inputLive = true
				break
			}
			if t.Producer.ID < i {
				cross = t
				count++
			}
		}
		if inputLive || count != 1 {
			continue
		}
		if dnn.GradRoot(cross) != cross || gradInfos[cross.ID] == nil {
			continue
		}
		allowed[i] = true
		crossing[i] = cross
	}
	return allowed, crossing
}

// layerCostEstimate scores one layer for the balanced partitioner: forward
// plus backward kernel time under the requested algorithm mode (greedy
// layers are estimated memory-optimal, their guaranteed-feasible floor).
// Only relative magnitudes matter — the estimate balances stages, the
// simulation itself uses the real plan.
func layerCostEstimate(spec gpu.Spec, net *dnn.Network, l *dnn.Layer, algo AlgoMode) float64 {
	d := net.DType
	var algos LayerAlgos
	if l.Kind == dnn.Conv {
		switch algo {
		case PerfOptimal:
			g := l.ConvGeom(d)
			algos = LayerAlgos{
				Fwd:       cudnnsim.FastestAlgo(spec, g, cudnnsim.Fwd, -1).Algo,
				BwdData:   cudnnsim.FastestAlgo(spec, g, cudnnsim.BwdData, -1).Algo,
				BwdFilter: cudnnsim.FastestAlgo(spec, g, cudnnsim.BwdFilter, -1).Algo,
			}
		default:
			algos = LayerAlgos{cudnnsim.ImplicitGEMM, cudnnsim.ImplicitGEMM, cudnnsim.ImplicitGEMM}
		}
	}
	total := fwdKernelCost(spec, d, l, algos).Dur
	for _, c := range bwdKernelCosts(spec, d, l, algos) {
		total += c.Dur
	}
	return float64(total)
}

// resolveBoundaryCodecs fills each boundary's activation codec decision by
// running the crossing tensors through buildCompression — the exact
// resolution the offload plan applies (configured codec, sparsity profile,
// CompressionPolicy hook), so inter-stage activations compress exactly like
// offloaded ones.
func resolveBoundaryCodecs(net *dnn.Network, cfg Config, pol OffloadPolicy, bounds []stageBoundary) error {
	ts := make([]*dnn.Tensor, len(bounds))
	for i := range bounds {
		ts[i] = bounds[i].t
	}
	decisions, err := buildCompression(net, cfg, pol, ts)
	if err != nil {
		return err
	}
	if decisions != nil {
		for i := range bounds {
			bounds[i].codec = decisions[bounds[i].t.ID]
		}
	}
	return nil
}

// sendActivation moves boundary b's feature map for one micro-batch from
// src to dst: an optional compression pass on src's D2H engine, the
// wire-sized transfer across both shared channel directions, an optional
// decompression pass on dst's H2D engine, and the device residence in dst's
// pool. dst's first consumer kernels depend on the landed (and expanded)
// data through the buffer's lastWrite.
func sendActivation(src, dst *runtime, b stageBoundary, mb int) error {
	d := src.net.DType
	t := b.t
	bs := src.buf[t.ID]
	if bs.block == nil {
		return fmt.Errorf("core: boundary fm%d not resident at send (mb %d)", t.ID, mb)
	}
	raw := src.mbShare(t.Bytes(d))
	dep := bs.lastWrite
	label := fmt.Sprintf("fm%d.mb%d", t.ID, mb)
	cost := b.codec.codec.Cost(raw, d.Size(), b.codec.sparsity, src.cfg.Spec.EffDRAMBps())
	wire := cost.WireBytes // raw when the codec is CodecNone or bypasses the map
	if wire < raw {
		dep = src.dev.Compress("CMP:PPS:"+label, cost.Compress, raw, dep)
		src.compressTime += cost.Compress
	}
	send := src.dev.StageSend("PPS:"+label, wire, src.arSend, dep)
	recv := dst.dev.StageRecv("PPR:"+label, wire, dst.arRecv, send)
	last := recv
	if wire < raw {
		last = dst.dev.Decompress("DEC:PPR:"+label, cost.Decompress, raw, recv)
		dst.decompressTime += cost.Decompress
	}
	blk, err := dst.alloc(raw, memalloc.KindFeatureMap, fmt.Sprintf("fm%d", t.ID))
	if err != nil {
		return err
	}
	st := dst.mbBufs[mb][t.ID]
	st.block = blk
	st.offloaded = false
	st.lastWrite = last
	src.ppSendRaw += raw
	src.ppSendBytes += wire
	dst.ppRecvRaw += raw
	dst.ppRecvBytes += wire
	return nil
}

// installBoundaryGrad prepares a stage's backward walk for one micro-batch:
// the gradient of its boundary-out tensor — computed by the next stage and
// received over the interconnect — gets device residence, and every backward
// kernel of the walk is ordered after the receive.
func installBoundaryGrad(rt *runtime, b stageBoundary, recv *sim.Op) error {
	if recv == nil {
		return fmt.Errorf("core: boundary gradient for fm%d missing", b.t.ID)
	}
	bs := rt.buf[b.t.ID]
	if bs.gradBlock == nil {
		gi := rt.gradInfos[b.t.ID]
		blk, err := rt.alloc(rt.mbShare(gi.Bytes), memalloc.KindGradMap, fmt.Sprintf("grad%d", b.t.ID))
		if err != nil {
			return err
		}
		bs.gradBlock = blk
	}
	bs.gradWritten = true
	rt.bwdExtraDep = recv
	return nil
}

// sendGradient hands boundary b's gradient for one micro-batch back from
// src (the stage above the boundary) to dst. Gradients move dense — the
// cDMA engine targets activation sparsity, which dX maps do not share. The
// send waits for everything src queued on its compute stream (its own
// backward contributions included); once it is in flight, src's copies of
// the gradient and of the boundary-in activation are released.
func sendGradient(src, dst *runtime, b stageBoundary, mb int) *sim.Op {
	t := b.t
	raw := src.mbShare(src.gradInfos[t.ID].Bytes)
	label := fmt.Sprintf("grad%d.mb%d", t.ID, mb)
	send := src.dev.StageSend("PPS:"+label, raw, src.arSend, src.dev.StreamCompute.Last())
	recv := dst.dev.StageRecv("PPR:"+label, raw, dst.arRecv, send)
	bs := src.buf[t.ID]
	if bs.gradBlock != nil && !bs.gradPersist {
		src.pool.Free(bs.gradBlock, send.End)
		bs.gradBlock = nil
	}
	if bs.block != nil && !bs.persist {
		// The received activation copy: dead once the stage's backward (all
		// queued before the send) has consumed it, unless the stage's own
		// release discipline already freed it.
		src.pool.Free(bs.block, send.End)
		bs.block = nil
		bs.offloaded = false
	}
	src.ppSendRaw += raw
	src.ppSendBytes += raw
	dst.ppRecvRaw += raw
	dst.ppRecvBytes += raw
	return recv
}
