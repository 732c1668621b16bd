package gpu

import "vdnn/internal/sim"

// PowerStats summarizes simulated board power over a time window, mirroring
// what the paper collects with nvprof (Section V-D): the time-weighted
// average and the instantaneous maximum.
type PowerStats struct {
	AvgW float64 `json:"avg_w"`
	MaxW float64 `json:"max_w"`
}

// EnergyStats is the per-op energy breakdown of the same window, in joules:
// the power timeline's integral attributed to what the board was doing.
// Measure fills it in the same sweep as PowerStats, segment by segment, and
// every watt of every segment lands in exactly one bucket, so
// TotalJ() == AvgW x window by construction — the conservation invariant
// the energy tests pin.
//
//   - ComputeJ: the compute-engine term plus the DRAM term driven by kernel
//     traffic.
//   - DMAJ: busy copy-engine terms plus the DRAM term driven by transfer
//     traffic (offload, prefetch, peer, inter-stage).
//   - CodecJ: the compressing-DMA passes' engine and DRAM terms.
//   - IdleJ: the idle floor, paid for the whole window regardless of work.
type EnergyStats struct {
	ComputeJ float64 `json:"compute_j"`
	DMAJ     float64 `json:"dma_j"`
	CodecJ   float64 `json:"codec_j"`
	IdleJ    float64 `json:"idle_j"`
}

// TotalJ is the whole-window energy, equal to the power-timeline integral.
func (e EnergyStats) TotalJ() float64 { return e.ComputeJ + e.DMAJ + e.CodecJ + e.IdleJ }

// Add returns the component-wise sum; multi-device results aggregate
// per-device breakdowns with it.
func (e EnergyStats) Add(o EnergyStats) EnergyStats {
	return EnergyStats{
		ComputeJ: e.ComputeJ + o.ComputeJ,
		DMAJ:     e.DMAJ + o.DMAJ,
		CodecJ:   e.CodecJ + o.CodecJ,
		IdleJ:    e.IdleJ + o.IdleJ,
	}
}

// Measurement is everything the device's schedule yields over a measured
// window [start, end). The counters (bytes, busy times, Span, stall) take
// every op with a nonzero duration that touches the window, at its full
// duration; Overlap, Power and Energy integrate the part of each op inside
// the window.
type Measurement struct {
	// Wire bytes by kind: D2H offload, H2D prefetch, and P2P all-reduce in
	// both directions.
	OffloadBytes, PrefetchBytes, AllReduceBytes int64

	// ComputeBusy is the compute engine's busy time; CopyBusy the DMA
	// engines' (transfers and codec passes); CodecBusy the codec passes'.
	ComputeBusy, CopyBusy, CodecBusy sim.Time

	// Span runs from the first op's start to the last op's end.
	Span sim.Time

	// PeerStart and PeerEnd bound the P2P (all-reduce) ops touching the
	// window; PeerStart is -1 when there are none.
	PeerStart, PeerEnd sim.Time

	// ContentionStall is the time the shared interconnect added to the
	// device's transfers: the sum over them of (duration − dedicated-link
	// DMA time). Under page migration the D2H and H2D transfers are
	// demand-paged rather than DMA, so they are left out; P2P and
	// inter-stage legs always count.
	ContentionStall sim.Time

	// Overlap is the copy time hidden under compute: the integral of the
	// number of running transfers and codec passes while a kernel runs.
	Overlap sim.Time

	Power  PowerStats
	Energy EnergyStats
}

// lane is one engine's place in the sweep. An engine is serial, so its ops
// come in time order and at most one of them runs at a time.
type lane struct {
	ops     []*sim.Op
	next    int      // the next op to admit
	op      *sim.Op  // the admitted op; nil once the lane is exhausted
	lo, hi  sim.Time // op's extent clipped to the window
	running bool     // op has started: the lane's next edge is hi, else lo
	bps     float64  // op's achieved DRAM bandwidth
}

// Measure walks the device's ops once and returns the window's Measurement.
//
// The walk merges the three engines' time-ordered op lists into one sweep
// over the segments between consecutive op edges (the distinct clipped
// start and end times of nonzero-duration ops, plus the window ends). In
// each segment the linear power model is evaluated from which engines are
// busy and the achieved DRAM bandwidth of the ops running there, and the
// segment's watts are attributed to compute/DMA/codec/idle.
func (d *Device) Measure(start, end sim.Time) Measurement {
	p := d.Spec.Power
	m := Measurement{PeerStart: -1, Power: PowerStats{AvgW: p.IdleW, MaxW: p.IdleW}}
	if end <= start {
		return m
	}
	var spanLo, spanHi sim.Time
	seen := false
	// admit moves l to its next op with a nonzero stretch inside the
	// window, counting every op it passes.
	admit := func(l *lane) {
		l.op, l.running = nil, false
		for l.next < len(l.ops) {
			o := l.ops[l.next]
			l.next++
			if o.Kind == sim.OpCopyP2P && o.End > start && o.Start < end {
				if m.PeerStart < 0 || o.Start < m.PeerStart {
					m.PeerStart = o.Start
				}
				m.PeerEnd = max(m.PeerEnd, o.End)
			}
			if o.DurationT == 0 || o.End <= start || o.Start >= end {
				continue
			}
			if !seen || o.Start < spanLo {
				spanLo = o.Start
			}
			spanHi, seen = max(spanHi, o.End), true
			switch o.Kind {
			case sim.OpKernel:
				m.ComputeBusy += o.DurationT
			case sim.OpCompress, sim.OpDecompress:
				// Codec passes keep their DMA engine busy like any copy and
				// can hide behind compute the same way; they move no wire
				// bytes and never stall on the interconnect.
				m.CopyBusy += o.DurationT
				m.CodecBusy += o.DurationT
			case sim.OpCopyD2H, sim.OpCopyH2D, sim.OpCopyP2P, sim.OpCopyStage:
				m.CopyBusy += o.DurationT
				switch o.Kind {
				case sim.OpCopyD2H:
					m.OffloadBytes += o.BusBytes
				case sim.OpCopyH2D:
					m.PrefetchBytes += o.BusBytes
				case sim.OpCopyP2P:
					m.AllReduceBytes += o.BusBytes
				}
				// Page migration replaces only the host transfers' DMA;
				// peer and inter-stage legs stay DMA and can still stall.
				host := o.Kind == sim.OpCopyD2H || o.Kind == sim.OpCopyH2D
				if !(d.UsePageMigration && host) {
					if stall := o.DurationT - d.Spec.Link.DMATime(o.BusBytes); stall > 0 {
						m.ContentionStall += stall
					}
				}
			}
			l.op, l.lo, l.hi = o, max(o.Start, start), min(o.End, end)
			l.bps = float64(o.DRAMBytes) / o.DurationT.Seconds()
			return
		}
	}

	var energy float64 // watt-seconds
	lanes := [3]lane{{ops: d.Compute.Ops()}, {ops: d.DMADown.Ops()}, {ops: d.DMAUp.Ops()}}
	// account integrates one segment of length dt over the running ops. The
	// DRAM term is one clamped total (DRAMW x min(1, sum bps / peak)); its
	// attribution splits it in proportion to each category's share of the
	// bandwidth sum, so the split is exact even when the clamp engages.
	account := func(dt sim.Time) {
		// The running ops in op-ID order: the bandwidth sum adds floats in
		// this order, and a fixed order keeps every reported watt the same
		// from run to run.
		var run [len(lanes)]*lane
		n := 0
		for i := range lanes {
			if l := &lanes[i]; l.running {
				j := n
				for ; j > 0 && run[j-1].op.ID > l.op.ID; j-- {
					run[j] = run[j-1]
				}
				run[j] = l
				n++
			}
		}
		computeBusy := false
		var dramBps, kernelBps, copyBps, codecBps float64
		nCopy, nCodec := 0, 0
		for _, l := range run[:n] {
			switch l.op.Kind {
			case sim.OpKernel:
				computeBusy = true
				kernelBps += l.bps
			case sim.OpCompress, sim.OpDecompress:
				nCodec++ // codec passes keep their DMA engine busy
				codecBps += l.bps
			case sim.OpCopyD2H, sim.OpCopyH2D, sim.OpCopyP2P, sim.OpCopyStage:
				nCopy++
				copyBps += l.bps
			}
			dramBps += l.bps
		}
		w := p.IdleW
		var computeW float64
		if computeBusy {
			w += p.ComputeW
			computeW = p.ComputeW
			m.Overlap += dt * sim.Time(nCopy+nCodec)
		}
		frac := min(dramBps/d.Spec.DRAMBps, 1)
		w += p.DRAMW * frac
		w += p.CopyW * float64(nCopy+nCodec)
		dmaW := p.CopyW * float64(nCopy)
		codecW := p.CopyW * float64(nCodec)
		if catBps := kernelBps + copyBps + codecBps; catBps > 0 {
			dram := p.DRAMW * frac
			computeW += dram * kernelBps / catBps
			dmaW += dram * copyBps / catBps
			codecW += dram * codecBps / catBps
		}
		s := dt.Seconds()
		energy += w * s
		m.Energy.IdleJ += p.IdleW * s
		m.Energy.ComputeJ += computeW * s
		m.Energy.DMAJ += dmaW * s
		m.Energy.CodecJ += codecW * s
		m.Power.MaxW = max(m.Power.MaxW, w)
	}

	for i := range lanes {
		admit(&lanes[i])
	}
	cursor := start
	for {
		t, done := end, true
		for i := range lanes {
			if l := &lanes[i]; l.op != nil {
				edge := l.lo
				if l.running {
					edge = l.hi
				}
				t, done = min(t, edge), false
			}
		}
		if done {
			break
		}
		if t > cursor {
			account(t - cursor)
			cursor = t
		}
		for i := range lanes {
			l := &lanes[i]
			if l.running && l.hi == t {
				admit(l)
			}
			if l.op != nil && !l.running && l.lo == t {
				l.running = true
			}
		}
	}
	if cursor < end {
		account(end - cursor)
	}
	m.Span = spanHi - spanLo
	m.Power.AvgW = energy / (end - start).Seconds()
	return m
}
