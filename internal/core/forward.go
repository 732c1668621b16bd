package core

import (
	"fmt"

	"vdnn/internal/cudnnsim"
	"vdnn/internal/dnn"
	"vdnn/internal/gpu"
	"vdnn/internal/memalloc"
	"vdnn/internal/sim"
	"vdnn/internal/tensor"
)

// fwdPending is the in-flight state of one layer's forward pass between its
// asynchronous issue and its end-of-layer synchronization.
type fwdPending struct {
	kernel  *sim.Op       // the layer's forward kernel
	offOps  []*sim.Op     // offload transfers launched for this layer
	offBufs []*dnn.Tensor // feature maps released once their offload lands
	offW    *bufState     // offloaded weight buffer (weight-offload extension)
}

// issueForward launches one layer's forward pass asynchronously: vDNN's
// offloads, the output allocation, the workspace and the kernel (Figures 7
// and 9). The end-of-layer synchronization and the release of offloaded
// device copies happen in finishForward, so the trainer can issue
// the layer on every device before synchronizing any of them.
func (e *runtime) issueForward(l *dnn.Layer) (fwdPending, error) {
	var p fwdPending
	st := &e.stats[l.ID]
	d := e.net.DType

	// 1. Launch offloads for buffers whose last consumer is this layer,
	// plus — under the weight-offloading extension — this layer's weights.
	if e.vdnnManaged() {
		for _, t := range e.plan.OffloadAt[l.ID] {
			if err := e.ensurePinned(t); err != nil {
				return p, err
			}
			bs := e.buf[t.ID]
			op := e.offloadCompressed(fmt.Sprintf("%s(fm%d)", l.Name, t.ID), t, e.mbShare(t.Bytes(d)), bs.lastWrite)
			p.offOps = append(p.offOps, op)
			p.offBufs = append(p.offBufs, t)
			e.lay[l.ID].offloaded = true
			st.Offloaded = true
			st.OffloadBytes += e.mbShare(t.Bytes(d))
		}
		if ws := e.wState[l.ID]; ws != nil && e.offloadsWeights() && !ws.offloaded {
			if ws.pinned == nil {
				r, cost, err := e.host.AllocPinned(l.WeightBytes(d), l.Name+".W.pin")
				if err != nil {
					return p, err
				}
				e.dev.TL.AdvanceHost(cost)
				ws.pinned = r
			}
			// The weights were last written by the previous iteration's SGD
			// update; the transfer must order after it. Weights are dense, so
			// they bypass the codec.
			op := e.dev.Offload("OFF:"+l.Name+".W", l.WeightBytes(d), ws.lastWrite)
			e.offRawBytes += l.WeightBytes(d)
			p.offOps = append(p.offOps, op)
			p.offW = ws
			st.Offloaded = true
			st.OffloadBytes += l.WeightBytes(d)
		}
	}

	// 2. Allocate the output buffer (dynamic policies only; the baseline and
	// classifier buffers are network-wide).
	out := e.buf[l.Output.ID]
	if !l.InPlace && out.block == nil {
		b, err := e.alloc(e.mbShare(l.Output.Bytes(d)), memalloc.KindFeatureMap, fmt.Sprintf("fm%d", l.Output.ID))
		if err != nil {
			return p, err
		}
		out.block = b
	}

	// 3. Workspace and kernel.
	var algos LayerAlgos
	var wsBytes int64
	var wsBlock *memalloc.Block
	if l.Kind == dnn.Conv {
		algos = e.pickAlgos(l)
		st.AlgoFwd = algos.Fwd
		g := l.ConvGeom(d)
		wsBytes = algos.Fwd.Workspace(g, cudnnsim.Fwd)
		if wsBytes > 0 && e.vdnnManaged() {
			b, err := e.alloc(wsBytes, memalloc.KindWorkspace, l.Name+".ws")
			if err != nil {
				return p, err
			}
			wsBlock = b
		}
		if e.sharedWS != nil && wsBytes > e.sharedWS.Size {
			return p, fmt.Errorf("core: workspace %d exceeds shared buffer %d", wsBytes, e.sharedWS.Size)
		}
	}
	st.FwdWSBytes = wsBytes

	cost := e.mbCost(e.fwdCost(l, algos))
	deps := make([]*sim.Op, 0, len(l.Inputs))
	for _, t := range l.Inputs {
		if e.buf[t.ID].block == nil {
			return p, fmt.Errorf("core: fwd input fm%d not resident", t.ID)
		}
		deps = append(deps, e.buf[t.ID].lastWrite)
	}
	op := e.dev.Kernel("FWD:"+l.Name, cost.Dur, cost.Flops, cost.DRAMBytes, deps...)
	e.buf[l.Output.ID].lastWrite = op
	e.recordFwd(l, st, cost, op, wsBytes)
	p.kernel = op

	if wsBlock != nil {
		// Stream-ordered free: later allocations may reuse the workspace
		// because they serve kernels behind this one on stream_compute.
		e.pool.Free(wsBlock, e.now())
	}
	return p, nil
}

// finishForward ends a layer's forward pass: once the kernel and the
// layer's offloads have completed, the offloaded device copies are released
// (Section III-B). Synchronously, the host blocks until then — the
// end-of-layer synchronization of Figure 9. With async (pipeline stages)
// the releases are scheduled for that moment without blocking the shared
// host thread, so one stage's synchronization never stalls the issue of
// another stage's work.
func (e *runtime) finishForward(p fwdPending, async bool) {
	if len(p.offOps) == 0 {
		return
	}
	rel := p.kernel.End
	for _, o := range p.offOps {
		rel = max(rel, o.End)
	}
	if !async {
		e.dev.TL.Wait(p.kernel)
		for _, o := range p.offOps {
			e.dev.TL.Wait(o)
		}
		rel = e.now()
	}
	for _, t := range p.offBufs {
		bs := e.buf[t.ID]
		e.pool.Free(bs.block, rel)
		bs.block = nil
		bs.offloaded = true
	}
	if p.offW != nil {
		e.pool.Free(p.offW.block, rel)
		p.offW.block = nil
		p.offW.offloaded = true
	}
}

// recordFwd updates the per-layer stats from a forward kernel.
func (e *runtime) recordFwd(l *dnn.Layer, st *LayerStats, c cudnnsim.Cost, op *sim.Op, wsBytes int64) {
	st.FwdTime += c.Dur
	if st.FwdEnd < op.End {
		st.FwdEnd = op.End
	}
	if e.fwdStarts[l.ID] == 0 || op.Start < e.fwdStarts[l.ID] {
		e.fwdStarts[l.ID] = op.Start
	}
	if c.Dur > 0 {
		if bw := float64(c.DRAMBytes) / c.Dur.Seconds(); bw > st.FwdBW {
			st.FwdBW = bw
		}
	}
	ws := st.XBytes + st.WeightBytes + wsBytes + l.MaskBytes(e.net.DType)
	if !l.InPlace {
		ws += st.YBytes
	}
	if ws > st.FwdWorkingSet {
		st.FwdWorkingSet = ws
	}
}

// fwdCost computes the forward kernel cost of a layer.
func (e *runtime) fwdCost(l *dnn.Layer, algos LayerAlgos) cudnnsim.Cost {
	return fwdKernelCost(e.cfg.Spec, e.net.DType, l, algos)
}

// fwdKernelCost is the forward kernel cost model, also consulted by the
// pipeline partitioner's per-layer cost estimate.
func fwdKernelCost(spec gpu.Spec, d tensor.DType, l *dnn.Layer, algos LayerAlgos) cudnnsim.Cost {
	switch l.Kind {
	case dnn.Conv:
		return cudnnsim.ConvCost(spec, l.ConvGeom(d), algos.Fwd, cudnnsim.Fwd)
	case dnn.ReLU:
		return cudnnsim.ActivationFwdCost(spec, l.In().Bytes(d))
	case dnn.Pool:
		return cudnnsim.PoolFwdCost(spec, l.In().Bytes(d), l.Output.Bytes(d))
	case dnn.LRN:
		return cudnnsim.LRNFwdCost(spec, l.In().Bytes(d))
	case dnn.Concat:
		return cudnnsim.ConcatCost(spec, l.Output.Bytes(d))
	case dnn.Add:
		// Read every branch, write the sum.
		return cudnnsim.ElementwiseCost(spec, l.Output.Bytes(d), len(l.Inputs)+1)
	case dnn.BatchNorm:
		// Two passes for the statistics, one normalize-and-write pass.
		return cudnnsim.ElementwiseCost(spec, l.In().Bytes(d), 3)
	case dnn.FC:
		in := l.In().Shape
		return cudnnsim.GEMMCost(spec, int64(l.FC.OutFeatures), in.PerSample(), int64(in.N), d.Size())
	case dnn.Dropout:
		return cudnnsim.DropoutFwdCost(spec, l.In().Bytes(d), l.MaskBytes(d))
	case dnn.SoftmaxLoss:
		return cudnnsim.SoftmaxCost(spec, l.In().Bytes(d))
	}
	panic("core: unknown layer kind")
}
