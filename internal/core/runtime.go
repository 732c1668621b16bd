package core

import (
	"context"
	"fmt"

	"vdnn/internal/cudnnsim"
	"vdnn/internal/dnn"
	"vdnn/internal/gpu"
	"vdnn/internal/hostmem"
	"vdnn/internal/memalloc"
	"vdnn/internal/sim"
	"vdnn/internal/tensor"
)

// oraclePool is the pool size of the hypothetical GPU with enough memory to
// hold any studied DNN (the paper's oracular baseline).
const oraclePool = int64(1) << 40

// bufState tracks one feature-map buffer through an iteration.
type bufState struct {
	block     *memalloc.Block // device residence (nil when released/offloaded)
	pinned    *hostmem.Region // pinned host staging area, reused across iterations
	lastWrite *sim.Op         // op producing the current contents
	offloaded bool            // device copy released; host copy valid
	persist   bool            // allocated network-wide (baseline / classifier)

	gradBlock   *memalloc.Block // gradient buffer (aliasing roots only)
	gradPersist bool            // baseline shared slot: never freed
	gradWritten bool            // some consumer's backward already wrote it
}

// layerState carries the per-layer flags of the paper's Figure 10.
type layerState struct {
	offloaded  bool // set when the layer offloads its input feature map(s)
	prefetched bool // set when some later backward pass prefetched them
}

// runtime is the per-device execution context of one grid cell — one
// pipeline stage (the whole network outside pipelines) of one training
// replica: the device with its engines and streams, the vDNN memory pool,
// the framework-side (classifier) memory, host staging, per-buffer and
// per-layer state, and the statistics of the measured iteration. The one
// trainer (trainer.go) drives a grid of R replicas × S stages of runtimes on
// one shared timeline, their DMA traffic arbitrated over the topology's
// shared channels; a single-device simulation is the 1×1 grid.
//
// The per-layer work is split into issue/finish pairs (issueForward /
// finishForward, issueBackward / finishBackward): issue launches the layer's
// transfers and kernels asynchronously, finish performs the end-of-layer
// synchronization and releases. With one replica the trainer calls them
// back-to-back — exactly the sequence the paper's Figure 9 host loop
// executes — while with several it issues a layer on every replica before
// synchronizing any of them, modeling a host thread that launches work
// across all GPUs and then waits.
type runtime struct {
	cfg  Config
	net  *dnn.Network
	plan *Plan

	// ctx, when non-nil, is the cancellation signal of the enclosing
	// RunContext call: the trainer probes it (checkCtx) at layer
	// boundaries so a canceled request stops simulating within one layer's
	// worth of work. Set by execute, never by newRuntimeRange — construction
	// is quick and always runs to completion.
	ctx context.Context

	// lo/hi bound the layer IDs this runtime owns: [0, len(Layers)) for a
	// whole-network replica, a contiguous stage range under pipeline
	// parallelism. Setup, execution and the release discipline only touch
	// owned layers and the tensors they produce (plus boundary tensors
	// received from the previous stage).
	lo, hi int

	// Micro-batch context (pipeline parallelism). mbCount is the number of
	// micro-batches one iteration is split into (1 otherwise); mbIndex is
	// the micro-batch currently being issued. buf and lay alias
	// mbBufs[mbIndex]/mbLay[mbIndex], so the per-layer issue/finish code is
	// oblivious to micro-batching: each micro-batch carries its own buffer
	// and offload/prefetch flags, while persistent state (weights, baseline
	// feature maps, classifier memory, the input batch) is shared.
	mbCount int
	mbIndex int
	mbBufs  [][]*bufState
	mbLay   [][]*layerState

	// bwdExtraDep, when set, is added to every backward kernel issued — the
	// trainer points it at the inter-stage gradient receive so a
	// stage's backward cannot start before its output gradient lands. Nil
	// outside pipeline runs.
	bwdExtraDep *sim.Op

	// Inter-stage wire traffic counters (pipeline parallelism): bytes this
	// stage sent to its successor and received from its neighbors, wire and
	// pre-codec.
	ppSendBytes, ppRecvBytes int64
	ppSendRaw, ppRecvRaw     int64

	dev  *gpu.Device
	pool *memalloc.Pool // the vDNN/cnmem pool: feature-extraction memory
	rec  *Structure     // records the pool's trace and each allocation's site
	fw   *memalloc.Pool // framework-side (classifier) memory, outside vDNN
	host *hostmem.Host

	// arSend/arRecv carry the replicas' gradient all-reduce and the
	// pipeline's inter-stage transfers; empty on a single device.
	arSend *sim.Stream
	arRecv *sim.Stream

	gradInfos []*dnn.GradInfo // the network's, indexed by Tensor.ID (dnn.GradientInfos)
	freeAtBwd [][]*dnn.Tensor // buffers released after each layer's backward

	buf []*bufState   // per-buffer state, indexed by Tensor.ID
	lay []*layerState // per-layer flags, indexed by Layer.ID

	// Weight-offloading extension (Config.OffloadWeights): per-layer weight
	// buffer state, indexed by Layer.ID (nil for weight-less and other
	// stages' layers), and the JIT prefetch schedule for weights.
	wState      []*bufState
	wPrefetchAt [][]*dnn.Layer

	sharedWS *memalloc.Block // baseline: single reused workspace

	at        site // the trainer's current place: iteration, layer pass
	stats     []LayerStats
	fwdStarts []sim.Time // first fwd kernel start per layer
	onDemand  int
	chosenAlg []LayerAlgos // algorithms actually used (greedy fills these)

	// Codec accounting for the measured iteration: the pre-codec (logical)
	// bytes behind the offload/prefetch wire traffic, and the codec busy
	// time on the DMA engines. Raw equals wire when nothing compresses.
	offRawBytes    int64
	preRawBytes    int64
	compressTime   sim.Time
	decompressTime sim.Time
}

// newRuntimeRange builds the execution context of one grid cell: the
// stage owning layers [lo, hi) — the whole network outside pipelines — of
// one replica, on the given device, split into mbCount micro-batches. It
// performs the persistent allocations (framework memory, pool setup); an
// allocation failure means the configuration is untrainable. With record
// set, the runtime records its vDNN pool's allocator trace and the site of
// every allocation into a Structure (differential evaluation; structure.go).
//
// Memory accounting follows the paper's prototype (Section IV-A): the
// classification layers "remain unchanged and use the same cuBLAS routines
// used in Torch", so their weights, activations, gradients and dropout masks
// live in framework-side memory outside the vDNN pool. The vDNN pool is
// sized to the GPU's remaining capacity and holds everything the memory
// manager controls: feature-extraction maps, gradient maps, FE weights, and
// convolution workspaces. Figure 11's usage numbers are pool numbers.
func newRuntimeRange(net *dnn.Network, cfg Config, plan *Plan, dev *gpu.Device, lo, hi, mbCount int, record bool) (*runtime, error) {
	e := &runtime{
		at:        site{iter: -1, layer: -1},
		cfg:       cfg,
		net:       net,
		plan:      plan,
		lo:        lo,
		hi:        hi,
		mbCount:   mbCount,
		dev:       dev,
		fw:        memalloc.New(oraclePool),
		host:      hostmem.New(cfg.HostBytes),
		arSend:    dev.TL.NewStream("stream_ar_send"),
		arRecv:    dev.TL.NewStream("stream_ar_recv"),
		gradInfos: dnn.GradientInfos(net),
		freeAtBwd: make([][]*dnn.Tensor, len(net.Layers)),
		buf:       make([]*bufState, len(net.Tensors)),
		lay:       make([]*layerState, len(net.Layers)),
		chosenAlg: make([]LayerAlgos, len(net.Layers)),
	}
	// One arena allocation backs all per-tensor and per-layer state, instead
	// of an allocator round-trip per tensor — these dominate the allocation
	// profile of a sweep (one runtime per sweep point).
	bufArena := make([]bufState, len(e.buf))
	for i := range e.buf {
		e.buf[i] = &bufArena[i]
	}
	layArena := make([]layerState, len(e.lay))
	for i := range e.lay {
		e.lay[i] = &layArena[i]
	}
	copy(e.chosenAlg, plan.Algos)
	// Walk tensors in graph order: the release sequence feeds the pool's
	// pending-free heap, and the allocator call sequence must be
	// reproducible for the recorded trace to price other capacities exactly.
	lastBwd := e.lastBwdReaders()
	for _, t := range net.Tensors {
		if l := lastBwd[t.ID]; l != nil {
			e.freeAtBwd[l.ID] = append(e.freeAtBwd[l.ID], t)
		}
	}
	e.wState = make([]*bufState, len(net.Layers))
	e.wPrefetchAt = make([][]*dnn.Layer, len(net.Layers))
	if e.offloadsWeights() {
		for _, l := range net.FeatureLayers() {
			if l.WeightBytes(net.DType) == 0 {
				continue
			}
			// JIT: the weights' only backward reader is the layer itself, so
			// the prefetch overlaps the backward pass one step above it.
			at := l.ID + 1
			if at >= len(net.Layers) {
				at = len(net.Layers) - 1
			}
			e.wPrefetchAt[at] = append(e.wPrefetchAt[at], l)
		}
	}

	if err := e.setupFramework(); err != nil {
		return nil, err
	}
	capacity := cfg.Spec.PoolBytes() - e.fw.Used()
	if cfg.Oracle {
		capacity = oraclePool
	}
	if capacity <= 0 {
		return nil, classifierErr(e.fw.Used())
	}
	var tr *memalloc.Trace
	if record {
		tr = &memalloc.Trace{}
		e.rec = &Structure{trace: tr}
	}
	e.pool = memalloc.NewTraced(capacity, tr)
	if err := e.setup(); err != nil {
		return nil, err
	}

	// Per-micro-batch buffer and layer-flag views. Index 0 is the state the
	// persistent setup above populated; further micro-batches share the
	// persistent states (weights, baseline/classifier buffers, gradient
	// slots, the input batch) and get fresh states for everything the vDNN
	// runtime manages dynamically.
	e.mbBufs = make([][]*bufState, e.mbCount)
	e.mbLay = make([][]*layerState, e.mbCount)
	e.mbBufs[0], e.mbLay[0] = e.buf, e.lay
	for mb := 1; mb < e.mbCount; mb++ {
		bufs := make([]*bufState, len(net.Tensors))
		mbBufArena := make([]bufState, len(net.Tensors))
		for id, st := range e.mbBufs[0] {
			if st.persist || st.gradPersist {
				bufs[id] = st
			} else {
				bufs[id] = &mbBufArena[id]
			}
		}
		lay := make([]*layerState, len(net.Layers))
		mbLayArena := make([]layerState, len(lay))
		for i := range lay {
			lay[i] = &mbLayArena[i]
		}
		e.mbBufs[mb], e.mbLay[mb] = bufs, lay
	}
	return e, nil
}

// setMB switches the runtime's current micro-batch context.
func (e *runtime) setMB(mb int) {
	e.mbIndex = mb
	e.buf = e.mbBufs[mb]
	e.lay = e.mbLay[mb]
}

// owned reports whether the runtime owns layer ID id.
func (e *runtime) owned(id int) bool { return id >= e.lo && id < e.hi }

// ownsTensor reports whether the runtime owns tensor t's storage: tensors
// its layers produce, plus the network input for the first stage.
func (e *runtime) ownsTensor(t *dnn.Tensor) bool {
	if t.Producer == nil {
		return e.lo == 0
	}
	return e.owned(t.Producer.ID)
}

// lastBwdReaders gives, for every buffer this runtime touches (indexed by
// Tensor.ID, nil for the others), the owned layer whose backward pass is its
// final owned reader — the stage-local version of dnn.LastBwdReaders,
// identical to it over the full layer range. Boundary tensors received from
// a previous stage that no owned backward kernel reads fall back to their
// earliest owned consumer.
func (e *runtime) lastBwdReaders() []*dnn.Layer {
	if e.lo == 0 && e.hi == len(e.net.Layers) {
		return dnn.LastBwdReaders(e.net)
	}
	m := make([]*dnn.Layer, len(e.net.Tensors))
	// Layers run in ID order, so the first reader seen is the lowest-ID one.
	for _, l := range e.net.Layers[e.lo:e.hi] {
		for _, t := range l.BwdReads() {
			if m[t.ID] == nil {
				m[t.ID] = l
			}
		}
	}
	for _, t := range e.net.Tensors {
		if m[t.ID] != nil {
			continue
		}
		if t.Producer != nil && e.owned(t.Producer.ID) {
			m[t.ID] = t.Producer
			continue
		}
		// Boundary-in tensor: release after its earliest owned consumer's
		// backward (nothing below it in this stage can reference it).
		for _, c := range t.Consumer {
			if e.owned(c.ID) {
				m[t.ID] = c
				break
			}
		}
	}
	return m
}

// mbShare returns this micro-batch's slice of an iteration-level quantity
// (bytes, duration, flops): the exact split n·(i+1)/M − n·i/M, which sums to
// n over all micro-batches and is the identity when mbCount is 1.
func (e *runtime) mbShare(n int64) int64 {
	if e.mbCount <= 1 {
		return n
	}
	m, i := int64(e.mbCount), int64(e.mbIndex)
	return n*(i+1)/m - n*i/m
}

// mbCost scales a full-batch kernel cost to the current micro-batch.
func (e *runtime) mbCost(c cudnnsim.Cost) cudnnsim.Cost {
	if e.mbCount <= 1 {
		return c
	}
	c.Dur = sim.Time(e.mbShare(int64(c.Dur)))
	c.Flops = e.mbShare(c.Flops)
	c.DRAMBytes = e.mbShare(c.DRAMBytes)
	return c
}

func (e *runtime) now() sim.Time { return e.dev.TL.Now() }

// alloc wraps pool allocation with layer context in errors.
func (e *runtime) alloc(size int64, kind memalloc.Kind, label string) (*memalloc.Block, error) {
	b, err := e.pool.Alloc(e.now(), size, kind, label)
	if err != nil {
		return nil, &AllocFailure{Label: label, Err: err, FreeSpans: e.pool.FreeSpans()}
	}
	if e.rec != nil {
		e.rec.sites = append(e.rec.sites, e.at)
	}
	return b, nil
}

// classifierErr fails a device whose classifier memory leaves no vDNN pool.
func classifierErr(fw int64) error {
	return fmt.Errorf("core: classifier memory %d alone exceeds device capacity", fw)
}

// isClassifierRoot reports whether a buffer belongs to the unmanaged
// classifier stage.
func isClassifierRoot(t *dnn.Tensor) bool {
	return t.Producer != nil && t.Producer.Stage == dnn.Classifier
}

// setupFramework allocates the classifier-side memory that lives outside
// the vDNN pool in both managers: FC weights and their gradients, dropout
// masks, classifier activations, and classifier gradient maps.
func (e *runtime) setupFramework() error {
	d := e.net.DType
	allocFW := func(size int64, kind memalloc.Kind, label string) (*memalloc.Block, error) {
		b, err := e.fw.Alloc(0, size, kind, label)
		if err != nil {
			return nil, fmt.Errorf("framework memory: allocating %s: %w", label, err)
		}
		return b, nil
	}
	for _, l := range e.net.ClassifierLayers() {
		if !e.owned(l.ID) {
			continue
		}
		if w := l.WeightBytes(d); w > 0 {
			if _, err := allocFW(w, memalloc.KindWeights, l.Name+".W"); err != nil {
				return err
			}
			if _, err := allocFW(w, memalloc.KindWeightGrad, l.Name+".dW"); err != nil {
				return err
			}
		}
		if m := l.MaskBytes(d); m > 0 {
			if _, err := allocFW(m, memalloc.KindOther, l.Name+".mask"); err != nil {
				return err
			}
		}
	}
	for _, t := range e.net.Tensors {
		if !isClassifierRoot(t) || !e.ownsTensor(t) {
			continue
		}
		b, err := allocFW(t.Bytes(d), memalloc.KindFeatureMap, fmt.Sprintf("fm%d", t.ID))
		if err != nil {
			return err
		}
		st := e.buf[t.ID]
		st.block = b
		st.persist = true
	}
	for _, gi := range e.gradInfos {
		if gi == nil || !isClassifierRoot(gi.Root) || !e.ownsTensor(gi.Root) {
			continue
		}
		b, err := allocFW(gi.Bytes, memalloc.KindGradMap, fmt.Sprintf("grad%d", gi.Root.ID))
		if err != nil {
			return err
		}
		st := e.buf[gi.Root.ID]
		st.gradBlock = b
		st.gradPersist = true
	}
	return nil
}

// offloadsWeights reports whether the weight-offloading extension is active.
func (e *runtime) offloadsWeights() bool {
	return e.cfg.OffloadWeights && !e.plan.Baseline
}

// setup performs the pool-side persistent allocations: feature-extraction
// weights and weight gradients for both managers, plus — for the baseline —
// every feature map, the shared gradient slots, and the single maximum
// workspace (Section IV-A).
func (e *runtime) setup() error {
	d := e.net.DType
	for _, l := range e.net.FeatureLayers() {
		if !e.owned(l.ID) {
			continue
		}
		if w := l.WeightBytes(d); w > 0 {
			wb, err := e.alloc(w, memalloc.KindWeights, l.Name+".W")
			if err != nil {
				return err
			}
			e.wState[l.ID] = &bufState{block: wb, persist: !e.offloadsWeights()}
			if _, err := e.alloc(w, memalloc.KindWeightGrad, l.Name+".dW"); err != nil {
				return err
			}
		}
	}

	if !e.plan.Baseline {
		return nil
	}

	// Baseline: all feature maps are resident network-wide.
	for _, t := range e.net.Tensors {
		if isClassifierRoot(t) || !e.ownsTensor(t) {
			continue // framework memory, or another stage's buffer
		}
		b, err := e.alloc(t.Bytes(d), memalloc.KindFeatureMap, fmt.Sprintf("fm%d", t.ID))
		if err != nil {
			return err
		}
		st := e.buf[t.ID]
		st.block = b
		st.persist = true
	}

	// Shared gradient slots over the feature-extraction stage.
	gplan := dnn.PlanGradientSlotsWhere(e.net, func(gi *dnn.GradInfo) bool {
		return !isClassifierRoot(gi.Root) && e.ownsTensor(gi.Root)
	})
	if err := dnn.VerifyGradPlan(gplan); err != nil {
		return fmt.Errorf("core: gradient plan: %w", err)
	}
	slots := make([]*memalloc.Block, len(gplan.SlotBytes))
	for i, sz := range gplan.SlotBytes {
		b, err := e.alloc(sz, memalloc.KindGradMap, fmt.Sprintf("grad-slot%d", i))
		if err != nil {
			return err
		}
		slots[i] = b
	}
	for _, gi := range gplan.Infos {
		st := e.buf[gi.Root.ID]
		st.gradBlock = slots[gplan.SlotOf[gi.Root]]
		st.gradPersist = true
	}

	// Single workspace sized to the maximum need across the network.
	var maxWS int64
	for _, l := range e.net.ConvLayers() {
		if !e.owned(l.ID) {
			continue
		}
		g := l.ConvGeom(d)
		a := e.plan.Algos[l.ID]
		for _, wd := range []struct {
			algo cudnnsim.ConvAlgo
			dir  cudnnsim.Direction
		}{{a.Fwd, cudnnsim.Fwd}, {a.BwdData, cudnnsim.BwdData}, {a.BwdFilter, cudnnsim.BwdFilter}} {
			if ws := wd.algo.Workspace(g, wd.dir); ws > maxWS {
				maxWS = ws
			}
		}
	}
	if maxWS > 0 {
		b, err := e.alloc(maxWS, memalloc.KindWorkspace, "shared-ws")
		if err != nil {
			return err
		}
		e.sharedWS = b
	}
	return nil
}

func (e *runtime) resetIteration() {
	// The stats and fwdStarts slices are reused across iterations (only the
	// last iteration's numbers reach the Result): the full-struct overwrite
	// below zeroes every per-iteration field a fresh allocation would have.
	if e.stats == nil {
		e.stats = make([]LayerStats, len(e.net.Layers))
		e.fwdStarts = make([]sim.Time, len(e.net.Layers))
	}
	clear(e.fwdStarts)
	for i, l := range e.net.Layers {
		e.stats[i] = LayerStats{
			Name:        l.Name,
			Kind:        l.Kind,
			Stage:       l.Stage,
			WeightBytes: l.WeightBytes(e.net.DType),
			XBytes:      sumInputBytes(l, e.net.DType),
			YBytes:      l.Output.Bytes(e.net.DType),
		}
	}
	for _, lay := range e.mbLay {
		for _, ls := range lay {
			ls.offloaded = false
			ls.prefetched = false
		}
	}
	for _, bufs := range e.mbBufs {
		for _, st := range bufs {
			st.gradWritten = false
			st.offloaded = false
		}
	}
	e.onDemand = 0
	e.offRawBytes, e.preRawBytes = 0, 0
	e.compressTime, e.decompressTime = 0, 0
	e.ppSendBytes, e.ppRecvBytes = 0, 0
	e.ppSendRaw, e.ppRecvRaw = 0, 0
}

func sumInputBytes(l *dnn.Layer, d tensor.DType) int64 {
	var b int64
	for _, in := range l.Inputs {
		b += in.Bytes(d)
	}
	return b
}

// checkIterationEnd asserts the vDNN release discipline: every dynamically
// managed buffer and gradient must be back in the pool.
func (e *runtime) checkIterationEnd() error {
	for _, bufs := range e.mbBufs {
		for id, st := range bufs {
			if !st.persist && st.block != nil && id != e.net.Input.ID {
				return fmt.Errorf("core: buffer fm%d leaked past iteration end", id)
			}
			if st.gradBlock != nil && !st.gradPersist {
				return fmt.Errorf("core: gradient of fm%d leaked past iteration end", id)
			}
		}
	}
	for id, ws := range e.wState {
		if ws != nil && ws.block == nil {
			return fmt.Errorf("core: weights of %s not resident at iteration end", e.net.Layers[id].Name)
		}
	}
	return nil
}

// vdnnManaged reports whether the policy manages buffers dynamically.
func (e *runtime) vdnnManaged() bool { return !e.plan.Baseline }

// pickAlgos resolves the algorithms for a CONV layer, honoring the greedy
// online mode: the fastest algorithm whose workspace fits in the largest
// free pool range right now (Section III-C, profiling phase 3).
func (e *runtime) pickAlgos(l *dnn.Layer) LayerAlgos {
	if !e.plan.GreedyAt[l.ID] {
		return e.plan.Algos[l.ID]
	}
	g := l.ConvGeom(e.net.DType)
	limit := e.pool.LargestFree(e.now())
	a := LayerAlgos{
		Fwd:       cudnnsim.FastestAlgo(e.cfg.Spec, g, cudnnsim.Fwd, limit).Algo,
		BwdData:   cudnnsim.FastestAlgo(e.cfg.Spec, g, cudnnsim.BwdData, limit).Algo,
		BwdFilter: cudnnsim.FastestAlgo(e.cfg.Spec, g, cudnnsim.BwdFilter, limit).Algo,
	}
	e.chosenAlg[l.ID] = a
	return a
}

// ensurePinned lazily creates the pinned host staging buffer for an
// offloaded feature map. cudaMallocHost is expensive, so the cost is charged
// once (first iteration) and the region reused for the rest of training.
func (e *runtime) ensurePinned(t *dnn.Tensor) error {
	st := e.buf[t.ID]
	if st.pinned != nil {
		return nil
	}
	r, cost, err := e.host.AllocPinned(e.mbShare(t.Bytes(e.net.DType)), fmt.Sprintf("pin-fm%d", t.ID))
	if err != nil {
		return err
	}
	e.dev.TL.AdvanceHost(cost)
	st.pinned = r
	return nil
}
