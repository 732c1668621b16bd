package core

import (
	"context"
	"fmt"

	"vdnn/internal/cudnnsim"
	"vdnn/internal/dnn"
	"vdnn/internal/gpu"
	"vdnn/internal/memalloc"
	"vdnn/internal/partition"
	"vdnn/internal/sim"
)

// maxDevices bounds the replica and stage counts; far beyond any PCIe root
// complex.
const maxDevices = 64

// grid is the set of runtimes one simulation drives: R data-parallel
// replicas × S pipeline stages, cells[r][s] running stage s of replica r on
// device r·S+s. A single device is the 1×1 grid, data parallelism R×1 and a
// pipeline 1×S; validation keeps R > 1 and S > 1 apart. Every cell shares
// one timeline — one event clock, one host issue thread — and its DMA
// traffic is arbitrated over the topology's shared channels.
type grid struct {
	net     *dnn.Network
	cells   [][]*runtime
	R, S, M int             // replicas, stages, micro-batches per iteration
	bounds  []stageBoundary // the S-1 inter-stage hand-offs

	// Per-step buffers, sized once: the pending per-layer work of each
	// replica, each replica's all-reduce gate, and the inter-stage gradient
	// receives — gradRecv[r·S+s][m] is the receive of cell (r, s)'s output
	// gradient for micro-batch m, written by stage s+1's backward one clock
	// step earlier.
	fp       []fwdPending
	bp       []bwdPending
	arDone   []*sim.Op
	gradRecv [][]*sim.Op
}

// execute simulates cfg.Iterations training iterations on the
// cfg.Devices × cfg.Stages grid and returns metrics for the last one. An
// allocation failure anywhere aborts with an error (the configuration is
// untrainable). plan is the full-network plan every replica follows; a
// pipeline instead derives one plan per stage from the policy. A done ctx
// aborts the run at the next layer boundary with an ErrCanceled-wrapping
// error. With record set, a run that trains also returns its Structure; only
// structure-shaped (single-device) configurations record.
func execute(ctx context.Context, net *dnn.Network, cfg Config, pol OffloadPolicy, plan *Plan, record bool) (*Result, *Structure, error) {
	R, S := cfg.Devices, cfg.Stages
	parts := []partition.Stage{{Lo: 0, Hi: len(net.Layers)}}
	var bounds []stageBoundary
	if S > 1 {
		var err error
		if parts, bounds, err = pipelineStages(net, cfg, pol); err != nil {
			return nil, nil, err
		}
	}
	tl := sim.New(cfg.Spec.LaunchOverhead, cfg.Spec.SyncOverhead)
	var down, up *sim.SharedChannel
	if cfg.Topology.Shared() {
		down = sim.NewSharedChannel("root.down", float64(cfg.Topology.RootBps))
		up = sim.NewSharedChannel("root.up", float64(cfg.Topology.RootBps))
	}

	// The grid's devices share the node's host DRAM: split the pinned-memory
	// budget.
	cellCfg := cfg
	cellCfg.HostBytes = cfg.HostBytes / int64(R*S)

	g := &grid{
		net: net, cells: make([][]*runtime, R), R: R, S: S, M: cfg.MicroBatches, bounds: bounds,
		fp: make([]fwdPending, R), bp: make([]bwdPending, R), arDone: make([]*sim.Op, R),
	}
	if S > 1 {
		g.gradRecv = make([][]*sim.Op, R*S)
		for i := range g.gradRecv {
			g.gradRecv[i] = make([]*sim.Op, g.M)
		}
	}
	for r := range g.cells {
		g.cells[r] = make([]*runtime, S)
		for s, pr := range parts {
			cellPlan := plan
			if S > 1 {
				var err error
				if cellPlan, err = buildStagePlan(net, cfg, pol, pr.Lo, pr.Hi); err != nil {
					return nil, nil, g.cellErr(r, s, err)
				}
			}
			dev := gpu.NewDeviceOn(tl, cfg.Spec, r*S+s, down, up)
			dev.UsePageMigration = cfg.PageMigration
			rt, err := newRuntimeRange(net, cellCfg, cellPlan, dev, pr.Lo, pr.Hi, g.M, record)
			if err != nil {
				return nil, nil, g.cellErr(r, s, err)
			}
			rt.ctx = ctx
			g.cells[r][s] = rt
		}
	}

	var winStart sim.Time
	for iter := 0; iter < cfg.Iterations; iter++ {
		for _, row := range g.cells {
			for _, c := range row {
				c.at = site{iter: int32(iter), layer: -1}
				c.resetIteration()
			}
		}
		winStart = tl.Now()
		if err := g.step(); err != nil {
			return nil, nil, iterErr(iter, err)
		}
	}
	winEnd := tl.Now()
	if err := tl.Validate(); err != nil {
		return nil, nil, fmt.Errorf("core: schedule invariant broken: %w", err)
	}
	for _, ch := range []*sim.SharedChannel{down, up} {
		if ch == nil {
			continue
		}
		if err := ch.Validate(); err != nil {
			return nil, nil, fmt.Errorf("core: interconnect invariant broken: %w", err)
		}
	}
	res, rec := g.assemble(cfg, winStart, winEnd), g.cells[0][0].rec
	if rec != nil {
		rec.Res = res.withOracle(true)
	}
	return res, rec, nil
}

// step drives one training step over the grid: the paper's Figure 9 host
// loop, generalized to R×S devices issued from one host thread.
//
// Stages follow a GPipe clock: at forward clock step k stage s issues
// micro-batch k−s, and the backward pass mirrors the schedule in reverse
// micro-batch order (with one stage and one micro-batch there is a single
// clock step). Within a stage the host walks the layers in lockstep across
// the replicas — it issues a layer on every replica, then performs the
// end-of-layer synchronizations — and after the backward pass each stage's
// replicas ring-all-reduce their weight gradients before the SGD updates.
//
// With several stages the end-of-layer synchronization is event-based
// instead of host-blocking: the shared host thread never blocks
// mid-pipeline, so one stage stalls another only through real engine and
// interconnect contention.
func (g *grid) step() error {
	S, M := g.S, g.M
	async := S > 1
	head := g.cells[0][0]

	for k := 0; k < S+M-1; k++ {
		for s := 0; s < S; s++ {
			mb := k - s
			if mb < 0 || mb >= M {
				continue
			}
			for r, row := range g.cells {
				row[s].setMB(mb)
				if s == 0 {
					row[s].at.layer = -1
					if err := row[s].beginIteration(); err != nil {
						return g.cellErr(r, s, err)
					}
				}
			}
			stage := g.cells[0][s]
			for _, l := range g.net.Layers[stage.lo:stage.hi] {
				if err := head.checkCtx(); err != nil {
					return err
				}
				for r, row := range g.cells {
					row[s].at.layer, row[s].at.bwd = int32(l.ID), false
					p, err := row[s].issueForward(l)
					if err != nil {
						return g.layerErr(r, s, err)
					}
					g.fp[r] = p
				}
				for r, row := range g.cells {
					row[s].finishForward(g.fp[r], async)
				}
			}
			if s < S-1 {
				for r, row := range g.cells {
					if err := sendActivation(row[s], row[s+1], g.bounds[s], mb); err != nil {
						return g.cellErr(r, s, err)
					}
				}
			}
		}
	}

	for _, recv := range g.gradRecv {
		clear(recv)
	}
	for k := 0; k < S+M-1; k++ {
		for s := S - 1; s >= 0; s-- {
			mb := (S - 1 - s) + (M - 1) - k
			if mb < 0 || mb >= M {
				continue
			}
			for r, row := range g.cells {
				row[s].setMB(mb)
				if s < S-1 {
					if err := installBoundaryGrad(row[s], g.bounds[s], g.gradRecv[r*S+s][mb]); err != nil {
						return fmt.Errorf("stage %d (mb %d): %w", s, mb, err)
					}
				}
			}
			stage := g.cells[0][s]
			for i := stage.hi - 1; i >= stage.lo; i-- {
				l := g.net.Layers[i]
				if err := head.checkCtx(); err != nil {
					return err
				}
				for r, row := range g.cells {
					row[s].at.layer, row[s].at.bwd = int32(l.ID), true
					p, err := row[s].issueBackward(l)
					if err != nil {
						return g.layerErr(r, s, err)
					}
					g.bp[r] = p
				}
				// Pipelined, there is no host-blocking end-of-layer sync: the
				// prefetch/kernel ordering is carried by op dependencies.
				if !async {
					for r, row := range g.cells {
						row[s].finishBackward(g.bp[r])
					}
				}
			}
			for r, row := range g.cells {
				row[s].bwdExtraDep = nil
				if s > 0 {
					g.gradRecv[r*S+s-1][mb] = sendGradient(row[s], row[s-1], g.bounds[s-1], mb)
				}
			}
		}
	}

	// The convnet-benchmarks timing protocol (SkipWeightUpdate) drops the
	// weight update and with it the gradient sync that exists only to feed
	// it — otherwise the all-reduce would dangle past the iteration
	// boundary, unsynchronized by anything.
	for s := 0; s < S; s++ {
		if !head.cfg.SkipWeightUpdate {
			g.allReduce(s)
		}
		for r, row := range g.cells {
			row[s].setMB(0)
			if err := row[s].weightUpdate(g.arDone[r]); err != nil {
				return g.cellErr(r, s, err)
			}
		}
		for r, row := range g.cells {
			if async {
				// Drain the inter-stage streams before the end-of-iteration
				// check; without stages they carry only the all-reduce, which
				// the SGD updates already wait on.
				row[s].dev.TL.WaitStream(row[s].arSend)
				row[s].dev.TL.WaitStream(row[s].arRecv)
			}
			if err := row[s].endIteration(); err != nil {
				return g.cellErr(r, s, err)
			}
		}
	}
	return nil
}

// cellErr prefixes a cell's error with its grid coordinates: "stage s:"
// only when there are several stages, "device r:" only when there are
// several replicas — a single device's errors read unprefixed.
func (g *grid) cellErr(r, s int, err error) error {
	if g.S > 1 {
		err = fmt.Errorf("stage %d: %w", s, err)
	}
	if g.R > 1 {
		err = fmt.Errorf("device %d: %w", r, err)
	}
	return err
}

// layerErr wraps a failure of cell (r, s)'s current layer pass with its
// site's pass and layer (passErr) before the cell prefix.
func (g *grid) layerErr(r, s int, err error) error {
	c, mb := g.cells[r][s], -1
	if g.S > 1 {
		mb = c.mbIndex
	}
	return g.cellErr(r, s, c.at.passErr(g.net, mb, err))
}

// site is a place in the trainer's loop: the iteration (-1 in setup) and the
// layer pass (layer -1 outside one). The trainer words failures by it, and a
// Structure keeps each traced allocation's, so Price words them alike.
type site struct {
	iter, layer int32
	bwd         bool // the pass: backward, else forward
}

// passErr prefixes err with the pass, layer and, if mb >= 0, micro-batch.
func (x site) passErr(net *dnn.Network, mb int, err error) error {
	pass, l := "fwd", net.Layers[x.layer].Name
	if x.bwd {
		pass = "bwd"
	}
	if mb >= 0 {
		return fmt.Errorf("%s %s (mb %d): %w", pass, l, mb, err)
	}
	return fmt.Errorf("%s %s: %w", pass, l, err)
}

func iterErr(iter int, err error) error { return fmt.Errorf("iteration %d: %w", iter, err) }

// beginIteration prepares the input batch buffer. The baseline holds it
// network-wide; vDNN allocates it per iteration (per micro-batch under
// pipeline parallelism — each micro-batch feeds its own input slice).
func (e *runtime) beginIteration() error {
	in := e.buf[e.net.Input.ID]
	if in.block == nil {
		b, err := e.alloc(e.mbShare(e.net.Input.Bytes(e.net.DType)), memalloc.KindFeatureMap, "input")
		if err != nil {
			return err
		}
		in.block = b
	}
	in.offloaded = false
	in.lastWrite = nil
	return nil
}

// weightUpdate issues the SGD update kernels. syncDep, when non-nil, orders
// every update after it — the replica's final all-reduce transfer, so no
// weight updates before its gradients are globally reduced.
func (e *runtime) weightUpdate(syncDep *sim.Op) error {
	if e.cfg.SkipWeightUpdate {
		return nil
	}
	for _, l := range e.net.Layers {
		if !e.owned(l.ID) {
			continue // another pipeline stage holds these weights
		}
		if w := l.WeightBytes(e.net.DType); w > 0 {
			c := cudnnsim.ElementwiseCost(e.cfg.Spec, w, 3)
			var dep *sim.Op
			if ws := e.wState[l.ID]; ws != nil {
				if ws.block == nil {
					return fmt.Errorf("core: weights of %s not resident at update", l.Name)
				}
				dep = ws.lastWrite
			}
			op := e.dev.Kernel("sgd:"+l.Name, c.Dur, c.Flops, c.DRAMBytes, dep, syncDep)
			if ws := e.wState[l.ID]; ws != nil {
				ws.lastWrite = op
			}
		}
	}
	return nil
}

// endIteration drains both streams, flushes the pool's pending frees and
// asserts the release discipline.
func (e *runtime) endIteration() error {
	e.dev.TL.WaitStream(e.dev.StreamCompute)
	e.dev.TL.WaitStream(e.dev.StreamMemory)
	e.pool.Flush(e.now())
	return e.checkIterationEnd()
}

// allReduce injects a ring all-reduce of stage s's weight gradients across
// the replicas over the interconnect, leaving each replica's last transfer
// (its SGD gate) in g.arDone: 2(R-1) phases in which every replica
// simultaneously sends one gradient chunk to its ring successor and receives
// one from its predecessor. Each replica moves 2(R-1)/R of the gradients per
// direction — the bandwidth-optimal schedule — and under a shared topology
// this traffic contends with everything else on the root complex.
func (g *grid) allReduce(s int) {
	clear(g.arDone)
	n := g.R
	if n < 2 {
		return
	}
	var gradBytes int64
	stage := g.cells[0][s]
	for _, l := range g.net.Layers[stage.lo:stage.hi] {
		gradBytes += l.WeightBytes(g.net.DType)
	}
	if gradBytes == 0 {
		return
	}
	chunk := (gradBytes + int64(n) - 1) / int64(n)
	recv := make([]*sim.Op, n)
	for phase := 0; phase < 2*(n-1); phase++ {
		send := make([]*sim.Op, n)
		for i, row := range g.cells {
			r := row[s]
			// The first send waits for the replica's gradients (everything
			// queued on stream_compute); later sends forward the chunk
			// received in the previous phase.
			dep := recv[i]
			if dep == nil {
				dep = r.dev.StreamCompute.Last()
			}
			send[i] = r.dev.PeerSend(fmt.Sprintf("AR-send:p%d", phase), chunk, r.arSend, dep)
		}
		for i, row := range g.cells {
			r := row[s]
			peer := send[(i-1+n)%n]
			recv[i] = r.dev.PeerRecv(fmt.Sprintf("AR-recv:p%d", phase), chunk, r.arRecv, peer)
		}
	}
	copy(g.arDone, recv)
}
