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

// findPrefetchLayer is a direct port of the paper's Figure 10: starting from
// the layer below the one whose backward pass is about to run, walk toward
// layer 0 looking for a layer that offloaded its input feature maps and has
// not been prefetched yet. Under the paper's window policy the search stops
// at the first CONV layer that needs no prefetch, bounding how early data is
// brought back (prefetching too early would let it camp in GPU memory
// again). The eager ablation removes that bound.
func (e *runtime) findPrefetchLayer(currLayerID int) int {
	for id := currLayerID - 1; id >= 0; id-- {
		if e.lay[id].offloaded && !e.lay[id].prefetched {
			e.lay[id].prefetched = true
			return id
		}
		if e.plan.Prefetch == PrefetchFig10 && e.net.Layers[id].Kind == dnn.Conv {
			return -1
		}
	}
	return -1
}

// prefetchBuffers re-allocates device space for the given buffers and
// launches their H2D transfers on stream_memory. A buffer that was offloaded
// compressed comes back through the codec: the wire-sized transfer is
// followed by a decompression pass, and the buffer's lastWrite is the
// decompression, so its backward readers pay the expansion before use.
func (e *runtime) prefetchBuffers(label string, bufs []*dnn.Tensor) ([]*sim.Op, error) {
	var ops []*sim.Op
	for _, t := range bufs {
		bs := e.buf[t.ID]
		if !bs.offloaded {
			continue
		}
		b, err := e.alloc(e.mbShare(t.Bytes(e.net.DType)), memalloc.KindFeatureMap, fmt.Sprintf("fm%d", t.ID))
		if err != nil {
			return nil, err
		}
		op := e.prefetchCompressed(fmt.Sprintf("PRE:%s(fm%d)", label, t.ID), t, e.mbShare(t.Bytes(e.net.DType)))
		bs.block = b
		bs.offloaded = false
		bs.lastWrite = op
		ops = append(ops, op)
	}
	return ops, nil
}

// fetchOnDemand serializes a blocking copy-back of one buffer — the paper's
// "naive" path that vDNN's prefetching exists to avoid. It only runs under
// PrefetchNone or if the window policy ever misses (counted and asserted in
// tests).
func (e *runtime) fetchOnDemand(t *dnn.Tensor) error {
	bs := e.buf[t.ID]
	b, err := e.alloc(e.mbShare(t.Bytes(e.net.DType)), memalloc.KindFeatureMap, fmt.Sprintf("fm%d", t.ID))
	if err != nil {
		return err
	}
	// The naive path has no lookahead: the copy is requested only when the
	// backward computation reaches the layer, so it starts after all queued
	// compute drains and the next kernel waits on it (the serialization the
	// paper's Section III-A describes) — decompression included when the
	// buffer went out compressed.
	op := e.prefetchCompressed(fmt.Sprintf("FETCH(fm%d)", t.ID), t, e.mbShare(t.Bytes(e.net.DType)), e.dev.StreamCompute.Last())
	e.dev.TL.Wait(op)
	bs.block = b
	bs.offloaded = false
	bs.lastWrite = op
	e.onDemand++
	return nil
}

// ensureGrad returns the gradient buffer for an aliasing root, allocating it
// on first write (vDNN) or returning the baseline's shared slot.
func (e *runtime) ensureGrad(root *dnn.Tensor) (*memalloc.Block, error) {
	bs := e.buf[root.ID]
	if bs.gradBlock != nil {
		return bs.gradBlock, nil
	}
	gi := e.gradInfos[root.ID]
	if gi == nil {
		return nil, fmt.Errorf("core: no gradient info for fm%d", root.ID)
	}
	b, err := e.alloc(e.mbShare(gi.Bytes), memalloc.KindGradMap, fmt.Sprintf("grad%d", root.ID))
	if err != nil {
		return nil, err
	}
	bs.gradBlock = b
	return b, nil
}

// bwdPending is the in-flight state of one layer's backward pass between
// its asynchronous issue and its end-of-layer synchronization.
type bwdPending struct {
	lastOp *sim.Op   // latest-ending backward kernel of the layer
	preOps []*sim.Op // prefetch transfers launched during this layer
}

// issueBackward launches one layer's backward pass: prefetch scheduling,
// on-demand fetch fallback, gradient allocation, the backward kernels and
// the release of Y/dY/workspace (Figures 8, 9, 10). The end-of-layer
// synchronization on in-flight prefetches happens in finishBackward.
func (e *runtime) issueBackward(l *dnn.Layer) (bwdPending, error) {
	var pend bwdPending
	st := &e.stats[l.ID]
	d := e.net.DType

	// 1. Prefetch scheduling (vDNN only).
	if e.vdnnManaged() && e.plan.Prefetch != PrefetchNone {
		// Weight-offloading extension: bring this step's scheduled weights
		// back just in time (their only backward reader is their own layer).
		for _, wl := range e.wPrefetchAt[l.ID] {
			ws := e.wState[wl.ID]
			if ws == nil || !ws.offloaded {
				continue
			}
			b, err := e.alloc(wl.WeightBytes(d), memalloc.KindWeights, wl.Name+".W")
			if err != nil {
				return pend, err
			}
			op := e.dev.Prefetch("PRE:"+wl.Name+".W", wl.WeightBytes(d))
			e.preRawBytes += wl.WeightBytes(d)
			ws.block = b
			ws.offloaded = false
			ws.lastWrite = op
			pend.preOps = append(pend.preOps, op)
		}
	}
	if e.vdnnManaged() {
		switch e.plan.Prefetch {
		case PrefetchJIT:
			ops, err := e.prefetchBuffers(l.Name, e.plan.PrefetchAt[l.ID])
			if err != nil {
				return pend, err
			}
			pend.preOps = ops
		case PrefetchFig10, PrefetchEager:
			if pid := e.findPrefetchLayer(l.ID); pid >= 0 {
				ops, err := e.prefetchBuffers(e.net.Layers[pid].Name, e.plan.OffloadAt[pid])
				if err != nil {
					return pend, err
				}
				pend.preOps = ops
			}
		case PrefetchNone:
			// On-demand fetches only (step 2).
		}
	}

	// 2. On-demand fetch of anything this layer's kernels read that is
	// still host-resident (the paper's serialized fallback path).
	var readBytes int64
	for _, t := range l.BwdReads() {
		readBytes += t.Bytes(d)
		if e.buf[t.ID].offloaded {
			if err := e.fetchOnDemand(t); err != nil {
				return pend, err
			}
		}
		if e.buf[t.ID].block == nil {
			return pend, fmt.Errorf("core: bwd read fm%d not resident", t.ID)
		}
	}
	if ws := e.wState[l.ID]; ws != nil && ws.offloaded {
		// Naive weight fetch: serialize behind queued compute like any
		// on-demand transfer.
		b, err := e.alloc(l.WeightBytes(d), memalloc.KindWeights, l.Name+".W")
		if err != nil {
			return pend, err
		}
		op := e.dev.Prefetch("FETCH:"+l.Name+".W", l.WeightBytes(d), e.dev.StreamCompute.Last())
		e.preRawBytes += l.WeightBytes(d)
		e.dev.TL.Wait(op)
		ws.block = b
		ws.offloaded = false
		ws.lastWrite = op
		e.onDemand++
	}

	// 3. Gradient buffers. The gradient of this layer's output must already
	// exist (written by its consumers' backward passes); gradients of its
	// inputs are allocated at first write.
	if l.Kind != dnn.SoftmaxLoss {
		outRoot := dnn.GradRoot(l.Output)
		if e.gradInfos[outRoot.ID] != nil && e.buf[outRoot.ID].gradBlock == nil {
			return pend, fmt.Errorf("core: dY for %s missing", l.Name)
		}
	}
	var gradInBytes int64
	for _, in := range l.Inputs {
		root := dnn.GradRoot(in)
		if e.gradInfos[root.ID] == nil {
			continue // network input: gradient skipped
		}
		if _, err := e.ensureGrad(root); err != nil {
			return pend, err
		}
		e.buf[root.ID].gradWritten = true
		gradInBytes += e.gradInfos[root.ID].Bytes
	}

	// 4. Workspace for the convolution backward kernels.
	var algos LayerAlgos
	var wsBytes int64
	var wsBlock *memalloc.Block
	if l.Kind == dnn.Conv {
		algos = e.pickAlgos(l)
		st.AlgoBwdData = algos.BwdData
		st.AlgoBwdFilter = algos.BwdFilter
		g := l.ConvGeom(d)
		wsBytes = algos.BwdData.Workspace(g, cudnnsim.BwdData)
		if w := algos.BwdFilter.Workspace(g, cudnnsim.BwdFilter); w > wsBytes {
			wsBytes = w
		}
		if wsBytes > 0 && e.vdnnManaged() {
			b, err := e.alloc(wsBytes, memalloc.KindWorkspace, l.Name+".bws")
			if err != nil {
				return pend, err
			}
			wsBlock = b
		}
		if e.sharedWS != nil && wsBytes > e.sharedWS.Size {
			return pend, fmt.Errorf("core: bwd workspace %d exceeds shared buffer %d", wsBytes, e.sharedWS.Size)
		}
	}

	// 5. Kernels.
	ops := e.bwdKernels(l, algos)
	for _, ko := range ops {
		if pend.lastOp == nil || ko.op.End > pend.lastOp.End {
			pend.lastOp = ko.op
		}
		if ko.op.End > st.BwdEnd {
			st.BwdEnd = ko.op.End
		}
		st.BwdTime += ko.cost.Dur
		if st.BwdStart == 0 || ko.op.Start < st.BwdStart {
			st.BwdStart = ko.op.Start
		}
		if ko.cost.Dur > 0 {
			if bw := float64(ko.cost.DRAMBytes) / ko.cost.Dur.Seconds(); bw > st.BwdBW {
				st.BwdBW = bw
			}
		}
	}
	outRootBytes := int64(0)
	if gi := e.gradInfos[dnn.GradRoot(l.Output).ID]; gi != nil {
		outRootBytes = gi.Bytes
	}
	bws := readBytes + st.WeightBytes*2 + wsBytes + gradInBytes + outRootBytes + l.MaskBytes(d)
	if bws > st.BwdWorkingSet {
		st.BwdWorkingSet = bws
	}

	// 6. Releases once this layer's backward computation completes: every
	// feature map whose last backward reader this layer is (Figure 8: "data
	// associated with the black Xs can safely be released"), the gradient
	// map this layer's backward consumed as its last reader, and the
	// temporary workspace. Frees take effect at host issue time: cnmem's
	// stream-ordered semantics let a later-issued allocation reuse the
	// memory safely because the compute stream executes in order.
	if e.vdnnManaged() {
		relTime := e.now()
		if wsBlock != nil {
			e.pool.Free(wsBlock, relTime)
		}
		for _, t := range e.freeAtBwd[l.ID] {
			bs := e.buf[t.ID]
			if !bs.persist && bs.block != nil {
				e.pool.Free(bs.block, relTime)
				bs.block = nil
				bs.offloaded = false
			}
		}
		outRoot := dnn.GradRoot(l.Output)
		if gi := e.gradInfos[outRoot.ID]; gi != nil && gi.LastReader == l {
			bs := e.buf[outRoot.ID]
			if bs.gradBlock != nil && !bs.gradPersist {
				e.pool.Free(bs.gradBlock, relTime)
				bs.gradBlock = nil
			}
		}
	}

	return pend, nil
}

// finishBackward performs the end-of-layer synchronization when a prefetch
// is in flight, so the next layer's backward cannot start before the data
// lands.
func (e *runtime) finishBackward(p bwdPending) {
	if len(p.preOps) == 0 {
		return
	}
	if p.lastOp != nil {
		e.dev.TL.Wait(p.lastOp)
	}
	for _, op := range p.preOps {
		e.dev.TL.Wait(op)
	}
}

type kernelOp struct {
	op   *sim.Op
	cost cudnnsim.Cost
}

// bwdKernelCosts enumerates a layer's backward kernel costs — the cost half
// of bwdKernels' switch, used by the pipeline partitioner's per-layer
// estimate (it includes the CONV data gradient unconditionally; whether the
// first layer skips it never moves a stage boundary).
func bwdKernelCosts(spec gpu.Spec, d tensor.DType, l *dnn.Layer, algos LayerAlgos) []cudnnsim.Cost {
	switch l.Kind {
	case dnn.Conv:
		g := l.ConvGeom(d)
		return []cudnnsim.Cost{
			cudnnsim.ConvCost(spec, g, algos.BwdData, cudnnsim.BwdData),
			cudnnsim.ConvCost(spec, g, algos.BwdFilter, cudnnsim.BwdFilter),
		}
	case dnn.ReLU:
		return []cudnnsim.Cost{cudnnsim.ActivationBwdCost(spec, l.In().Bytes(d))}
	case dnn.Pool:
		return []cudnnsim.Cost{cudnnsim.PoolBwdCost(spec, l.In().Bytes(d), l.Output.Bytes(d))}
	case dnn.LRN:
		return []cudnnsim.Cost{cudnnsim.LRNBwdCost(spec, l.In().Bytes(d))}
	case dnn.Concat, dnn.Add:
		return nil // pure views over the output gradient
	case dnn.BatchNorm:
		return []cudnnsim.Cost{cudnnsim.ElementwiseCost(spec, l.In().Bytes(d), 4)}
	case dnn.FC:
		in := l.In().Shape
		inF, outF, n := in.PerSample(), int64(l.FC.OutFeatures), int64(in.N)
		return []cudnnsim.Cost{
			cudnnsim.GEMMCost(spec, inF, outF, n, d.Size()),
			cudnnsim.GEMMCost(spec, outF, n, inF, d.Size()),
		}
	case dnn.Dropout:
		return []cudnnsim.Cost{cudnnsim.DropoutBwdCost(spec, l.In().Bytes(d), l.MaskBytes(d))}
	case dnn.SoftmaxLoss:
		return []cudnnsim.Cost{cudnnsim.SoftmaxCost(spec, l.In().Bytes(d))}
	}
	return nil
}

// bwdKernels issues the backward kernels of one layer and returns them.
func (e *runtime) bwdKernels(l *dnn.Layer, algos LayerAlgos) []kernelOp {
	spec := e.cfg.Spec
	d := e.net.DType
	var out []kernelOp
	issue := func(label string, c cudnnsim.Cost, deps ...*sim.Op) {
		c = e.mbCost(c)
		if e.bwdExtraDep != nil {
			// Pipeline: a stage's backward kernels wait for the inter-stage
			// gradient of the micro-batch to land (nil otherwise).
			deps = append(deps, e.bwdExtraDep)
		}
		op := e.dev.Kernel(label, c.Dur, c.Flops, c.DRAMBytes, deps...)
		out = append(out, kernelOp{op, c})
	}
	xDep := e.buf[l.In().ID].lastWrite
	var wDep *sim.Op
	if ws := e.wState[l.ID]; ws != nil {
		wDep = ws.lastWrite
	}
	switch l.Kind {
	case dnn.Conv:
		g := l.ConvGeom(d)
		if e.gradInfos[dnn.GradRoot(l.In()).ID] != nil {
			issue("BWD-DATA:"+l.Name, cudnnsim.ConvCost(spec, g, algos.BwdData, cudnnsim.BwdData), xDep, wDep)
		}
		issue("BWD-FILTER:"+l.Name, cudnnsim.ConvCost(spec, g, algos.BwdFilter, cudnnsim.BwdFilter), xDep)
	case dnn.ReLU:
		issue("BWD:"+l.Name, cudnnsim.ActivationBwdCost(spec, l.In().Bytes(d)), xDep)
	case dnn.Pool:
		issue("BWD:"+l.Name, cudnnsim.PoolBwdCost(spec, l.In().Bytes(d), l.Output.Bytes(d)), xDep)
	case dnn.LRN:
		issue("BWD:"+l.Name, cudnnsim.LRNBwdCost(spec, l.In().Bytes(d)), xDep)
	case dnn.Concat, dnn.Add:
		// Backward of a channel concat or elementwise add is pure views
		// over the output gradient; no kernel.
	case dnn.BatchNorm:
		issue("BWD:"+l.Name, cudnnsim.ElementwiseCost(spec, l.In().Bytes(d), 4), xDep)
	case dnn.FC:
		in := l.In().Shape
		inF, outF, n := in.PerSample(), int64(l.FC.OutFeatures), int64(in.N)
		issue("BWD-DATA:"+l.Name, cudnnsim.GEMMCost(spec, inF, outF, n, d.Size()), xDep)
		issue("BWD-FILTER:"+l.Name, cudnnsim.GEMMCost(spec, outF, n, inF, d.Size()), xDep)
	case dnn.Dropout:
		issue("BWD:"+l.Name, cudnnsim.DropoutBwdCost(spec, l.In().Bytes(d), l.MaskBytes(d)), xDep)
	case dnn.SoftmaxLoss:
		issue("BWD:"+l.Name, cudnnsim.SoftmaxCost(spec, l.In().Bytes(d)), xDep)
	}
	return out
}
