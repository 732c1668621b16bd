package core

import (
	"sort"

	"vdnn/internal/dnn"
	"vdnn/internal/memalloc"
	"vdnn/internal/sim"
)

// assemble builds the Result of the measured window [winStart, winEnd).
// Replica row 0 supplies the per-replica fields — pool usage, layer stats,
// PeakByKind, framework memory, on-demand fetches and Power — merged across
// its stages (replicas are symmetric, stages each own a slice of the
// network); traffic, energy, host-pinned and inter-stage counters sum over
// every cell. Devices carries per-device detail whenever the grid has more
// than one cell, Stages per-stage detail when it has more than one stage,
// and AllReduceTime is measured when there is more than one replica.
func (g *grid) assemble(cfg Config, winStart, winEnd sim.Time) *Result {
	head := g.cells[0][0]
	r := &Result{
		Network:      g.net.Name,
		Batch:        g.net.Batch,
		Policy:       cfg.Policy,
		PolicyName:   head.plan.PolicyName,
		Algo:         cfg.Algo,
		Oracle:       cfg.Oracle,
		Trainable:    true,
		IterTime:     winEnd - winStart,
		MicroBatches: cfg.MicroBatches,
		PeakByKind:   map[memalloc.Kind]int64{},
	}
	multi := g.R*g.S > 1
	layers := head.stats // row 0's stages merge into the first one's stats
	arStart, arEnd := sim.Time(-1), sim.Time(-1)
	for ri, row := range g.cells {
		for s, c := range row {
			var dr DeviceResult
			if multi {
				dr = c.deviceResult(winStart, winEnd)
				r.Devices = append(r.Devices, dr)
			} else {
				dr = c.deviceTotals(winStart, winEnd)
			}
			r.OffloadBytes += dr.OffloadBytes
			r.PrefetchBytes += dr.PrefetchBytes
			r.AllReduceBytes += dr.AllReduceBytes
			r.OffloadRawBytes += c.offRawBytes
			r.PrefetchRawBytes += c.preRawBytes
			r.CompressTime += c.compressTime
			r.DecompressTime += c.decompressTime
			r.HostPinnedPeak += c.host.Peak()
			r.InterStageBytes += c.ppSendBytes // each transfer counted once, at its sender
			r.InterStageRawBytes += c.ppSendRaw
			r.Energy = r.Energy.Add(dr.Energy)
			if g.R > 1 {
				arStart, arEnd = c.peerSpan(winStart, winEnd, arStart, arEnd)
			}
			if ri > 0 {
				continue
			}

			c.finalizeStats()
			copy(layers[c.lo:c.hi], c.stats[c.lo:c.hi])
			ms := c.pool.Measure(winStart, winEnd)
			r.MaxUsage = max(r.MaxUsage, ms.Peak)
			r.AvgUsage = max(r.AvgUsage, ms.Avg)
			for k, v := range ms.PeakByKind {
				r.PeakByKind[k] += v
			}
			for _, k := range memalloc.Kinds() {
				if v := c.fw.UsedByKind(k); v > 0 {
					r.PeakByKind[k] += v
				}
			}
			r.FrameworkBytes += c.fw.Used()
			r.OnDemandFetches += c.onDemand
			r.Power.AvgW += dr.Power.AvgW
			r.Power.MaxW += dr.Power.MaxW
			if cfg.Debug && g.S == 1 {
				r.DebugPeakTime = ms.PeakTime
				r.DebugPeakLive = c.pool.SnapshotAt(ms.PeakTime)
			}
			if g.S > 1 {
				sr := StageResult{
					Stage:         s,
					FirstLayer:    c.lo,
					LastLayer:     c.hi - 1,
					StepTime:      dr.StepTime,
					ComputeBusy:   dr.ComputeBusy,
					BubbleTime:    dr.StepTime - dr.ComputeBusy,
					SendBytes:     c.ppSendBytes,
					RecvBytes:     c.ppRecvBytes,
					OffloadBytes:  dr.OffloadBytes,
					PrefetchBytes: dr.PrefetchBytes,
					PoolPeak:      ms.Peak,
				}
				r.Stages = append(r.Stages, sr)
				r.BubbleTime += sr.BubbleTime
			}
		}
	}
	if arEnd > arStart && arStart >= 0 {
		r.AllReduceTime = arEnd - arStart
	}
	if g.S > 1 && r.IterTime > 0 {
		r.BubbleFraction = float64(r.BubbleTime) / (float64(g.S) * float64(r.IterTime))
	}
	r.CompressionRatio = compressionRatio(r.OffloadRawBytes, r.OffloadBytes)
	r.MaxWorkingSet = maxWorkingSet(layers)
	r.FETime = feWindow(layers)
	if r.FETime == 0 {
		r.FETime = r.IterTime
	}
	r.Layers = layers
	if cfg.CaptureSchedule {
		for _, row := range g.cells {
			for _, c := range row {
				r.Schedule = append(r.Schedule, c.captureSchedule(winStart, winEnd)...)
			}
		}
		sortSchedule(r.Schedule)
	}
	return r
}

// finalizeStats fills the derived per-layer fields (forward start, reuse
// distance, chosen algorithms) for the runtime's owned layers.
func (e *runtime) finalizeStats() {
	for i := e.lo; i < e.hi; i++ {
		st := &e.stats[i]
		st.FwdStart = e.fwdStarts[i]
		if st.BwdStart > st.FwdEnd && st.FwdEnd > 0 {
			st.ReuseDistance = st.BwdStart - st.FwdEnd
		}
		if e.net.Layers[i].Kind == dnn.Conv {
			st.AlgoFwd = e.chosenAlg[i].Fwd
			st.AlgoBwdData = e.chosenAlg[i].BwdData
			st.AlgoBwdFilter = e.chosenAlg[i].BwdFilter
		}
	}
}

// maxWorkingSet is the largest per-layer kernel working set across stats.
func maxWorkingSet(stats []LayerStats) int64 {
	var max int64
	for i := range stats {
		if ws := stats[i].FwdWorkingSet; ws > max {
			max = ws
		}
		if ws := stats[i].BwdWorkingSet; ws > max {
			max = ws
		}
	}
	return max
}

// feWindow derives the feature-extraction time (the paper's performance
// metric) from finalized layer stats: the span of the forward FE window plus
// the span of the backward FE window.
func feWindow(stats []LayerStats) sim.Time {
	var fwdFEStart, fwdFEEnd, bwdFEStart, bwdFEEnd sim.Time
	first := true
	for i := range stats {
		st := &stats[i]
		if st.Stage != dnn.FeatureExtraction {
			continue
		}
		if first || st.FwdStart < fwdFEStart {
			fwdFEStart = st.FwdStart
		}
		if st.FwdEnd > fwdFEEnd {
			fwdFEEnd = st.FwdEnd
		}
		if st.BwdStart > 0 && (bwdFEStart == 0 || st.BwdStart < bwdFEStart) {
			bwdFEStart = st.BwdStart
		}
		if st.BwdEnd > bwdFEEnd {
			bwdFEEnd = st.BwdEnd
		}
		first = false
	}
	var fe sim.Time
	if fwdFEEnd > fwdFEStart {
		fe = fwdFEEnd - fwdFEStart
	}
	if bwdFEEnd > bwdFEStart {
		fe += bwdFEEnd - bwdFEStart
	}
	return fe
}

// captureSchedule records this device's ops inside the window.
func (e *runtime) captureSchedule(winStart, winEnd sim.Time) []ScheduleOp {
	var out []ScheduleOp
	for _, eng := range e.dev.Engines() {
		for _, o := range eng.Ops() {
			if o.End <= winStart || o.Start >= winEnd || o.DurationT == 0 {
				continue
			}
			out = append(out, ScheduleOp{
				Device: e.dev.ID,
				Engine: eng.Name, Label: o.Label, Kind: o.Kind.String(),
				Start: o.Start, End: o.End,
			})
		}
	}
	return out
}

// sortSchedule imposes a total, deterministic order on captured ops so
// exported traces are stable byte for byte (the golden-trace tests rely on
// it): by start time, then device, then engine, then end, then label.
func sortSchedule(s []ScheduleOp) {
	sort.Slice(s, func(i, j int) bool {
		a, b := s[i], s[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Device != b.Device {
			return a.Device < b.Device
		}
		if a.Engine != b.Engine {
			return a.Engine < b.Engine
		}
		if a.End != b.End {
			return a.End < b.End
		}
		return a.Label < b.Label
	})
}

// deviceTotals measures the cell's wire traffic by kind, and its power and
// energy, over the window — the per-device numbers every Result sums.
func (e *runtime) deviceTotals(winStart, winEnd sim.Time) DeviceResult {
	dr := DeviceResult{Device: e.dev.ID}
	for _, eng := range e.dev.Engines() {
		for _, o := range eng.Ops() {
			if o.End <= winStart || o.Start >= winEnd || o.DurationT == 0 {
				continue
			}
			switch o.Kind {
			case sim.OpCopyD2H:
				dr.OffloadBytes += o.BusBytes
			case sim.OpCopyH2D:
				dr.PrefetchBytes += o.BusBytes
			case sim.OpCopyP2P:
				dr.AllReduceBytes += o.BusBytes
			}
		}
	}
	dr.OffloadRawBytes = e.offRawBytes
	dr.CompressionRatio = compressionRatio(dr.OffloadRawBytes, dr.OffloadBytes)
	dr.Power, dr.Energy = e.dev.MeasurePowerEnergy(winStart, winEnd)
	return dr
}

// peerSpan widens [start, end] (start < 0: empty) to cover the cell's
// peer-to-peer (all-reduce) transfers inside the window.
func (e *runtime) peerSpan(winStart, winEnd, start, end sim.Time) (sim.Time, sim.Time) {
	for _, eng := range e.dev.Engines() {
		for _, o := range eng.Ops() {
			if o.Kind != sim.OpCopyP2P || o.End <= winStart || o.Start >= winEnd {
				continue
			}
			if start < 0 || o.Start < start {
				start = o.Start
			}
			if o.End > end {
				end = o.End
			}
		}
	}
	return start, end
}

// deviceResult summarizes one replica's measured iteration.
func (e *runtime) deviceResult(winStart, winEnd sim.Time) DeviceResult {
	dr := e.deviceTotals(winStart, winEnd)
	var minS, maxE sim.Time
	first := true
	var computeIv, copyIv []sim.Interval
	for _, eng := range e.dev.Engines() {
		for _, o := range eng.Ops() {
			if o.End <= winStart || o.Start >= winEnd || o.DurationT == 0 {
				continue
			}
			if first || o.Start < minS {
				minS = o.Start
			}
			if o.End > maxE {
				maxE = o.End
			}
			first = false
			switch o.Kind {
			case sim.OpKernel:
				dr.ComputeBusy += o.DurationT
				computeIv = append(computeIv, sim.Interval{Start: o.Start, End: o.End, Op: o})
			case sim.OpCompress, sim.OpDecompress:
				// Codec passes keep their DMA engine busy like any copy and
				// can hide behind compute the same way; they move no wire
				// bytes and never stall on the interconnect.
				dr.CopyBusy += o.DurationT
				dr.CodecBusy += o.DurationT
				copyIv = append(copyIv, sim.Interval{Start: o.Start, End: o.End, Op: o})
			case sim.OpCopyD2H, sim.OpCopyH2D, sim.OpCopyP2P, sim.OpCopyStage:
				dr.CopyBusy += o.DurationT
				copyIv = append(copyIv, sim.Interval{Start: o.Start, End: o.End, Op: o})
				if !e.cfg.PageMigration {
					if stall := o.DurationT - e.cfg.Spec.Link.DMATime(o.BusBytes); stall > 0 {
						dr.ContentionStall += stall
					}
				}
			}
		}
	}
	if !first {
		dr.StepTime = maxE - minS
	}
	if dr.CopyBusy > 0 {
		dr.OverlapEff = float64(overlapTime(copyIv, computeIv)) / float64(dr.CopyBusy)
	}
	return dr
}

// compressionRatio is raw/wire, defaulting to 1 when there is no traffic.
func compressionRatio(raw, wire int64) float64 {
	if wire <= 0 || raw <= 0 {
		return 1
	}
	return float64(raw) / float64(wire)
}

// ReplicaMeans averages the per-replica metrics of a data-parallel result:
// mean step time, mean contention stall and mean overlap efficiency. A
// single-device result has no per-device detail — its transfers never
// contend — so it reports (IterTime, 0, 1).
func (r *Result) ReplicaMeans() (step, stall sim.Time, overlap float64) {
	if len(r.Devices) == 0 {
		return r.IterTime, 0, 1
	}
	for _, d := range r.Devices {
		step += d.StepTime
		stall += d.ContentionStall
		overlap += d.OverlapEff
	}
	n := len(r.Devices)
	return step / sim.Time(n), stall / sim.Time(n), overlap / float64(n)
}

// DeviceImbalance is the compute-load imbalance across a run's devices: the
// maximum per-device compute-busy time over the mean. 1 means perfectly
// balanced — symmetric data-parallel replicas sit there by construction,
// while pipeline stages report how unevenly the partitioner split the
// network. Single-device results report 1.
func (r *Result) DeviceImbalance() float64 {
	if len(r.Devices) == 0 {
		return 1
	}
	var total, max sim.Time
	for _, d := range r.Devices {
		total += d.ComputeBusy
		if d.ComputeBusy > max {
			max = d.ComputeBusy
		}
	}
	if total == 0 {
		return 1
	}
	mean := float64(total) / float64(len(r.Devices))
	return float64(max) / mean
}

// overlapTime returns the total time the intervals of a spend inside the
// union of the intervals of b.
func overlapTime(a, b []sim.Interval) sim.Time {
	merged := mergeIntervals(b)
	var total sim.Time
	for _, iv := range a {
		for _, m := range merged {
			lo, hi := iv.Start, iv.End
			if m.Start > lo {
				lo = m.Start
			}
			if m.End < hi {
				hi = m.End
			}
			if hi > lo {
				total += hi - lo
			}
		}
	}
	return total
}

// mergeIntervals coalesces intervals into a sorted, disjoint set.
func mergeIntervals(iv []sim.Interval) []sim.Interval {
	if len(iv) == 0 {
		return nil
	}
	s := append([]sim.Interval(nil), iv...)
	sort.Slice(s, func(i, j int) bool { return s[i].Start < s[j].Start })
	out := s[:1]
	for _, x := range s[1:] {
		last := &out[len(out)-1]
		if x.Start <= last.End {
			if x.End > last.End {
				last.End = x.End
			}
			continue
		}
		out = append(out, x)
	}
	return out
}
