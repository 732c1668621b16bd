package gpu

import (
	"math/rand"
	"sort"
	"testing"

	"vdnn/internal/sim"
)

// randomSchedule issues a seeded random mix of every op kind over 1-3
// devices sharing one timeline, on dedicated links or behind a pair of
// shared root-complex channels. Zero-byte transfers and zero-length
// kernels and codec passes give zero-duration ops; kernel DRAM traffic
// reaches past peak bandwidth so the DRAM clamp engages.
func randomSchedule(rng *rand.Rand) []*Device {
	spec := TitanX()
	spec.LaunchOverhead = sim.Time(rng.Intn(3)) * sim.Microsecond
	spec.SyncOverhead = sim.Time(rng.Intn(3)) * sim.Microsecond
	tl := sim.New(spec.LaunchOverhead, spec.SyncOverhead)
	var down, up *sim.SharedChannel
	if rng.Intn(2) == 0 {
		down = sim.NewSharedChannel("root.down", 12.8e9)
		up = sim.NewSharedChannel("root.up", 12.8e9)
	}
	devs := make([]*Device, 1+rng.Intn(3))
	aux := make([]*sim.Stream, len(devs))
	for i := range devs {
		devs[i] = NewDeviceOn(tl, spec, i, down, up)
		devs[i].UsePageMigration = rng.Intn(3) == 0
		aux[i] = tl.NewStream("aux")
	}
	var issued []*sim.Op
	for n := 40 + rng.Intn(80); len(issued) < n; {
		i := rng.Intn(len(devs))
		d := devs[i]
		var deps []*sim.Op
		if len(issued) > 0 && rng.Intn(3) == 0 {
			deps = append(deps, issued[rng.Intn(len(issued))])
		}
		bytes := int64(rng.Intn(5)) << 20 // 0-4 MiB
		dur := sim.Time(rng.Intn(6)) * 50 * sim.Microsecond
		dram := rng.Int63n(int64(1.5*spec.DRAMBps*dur.Seconds()) + 1)
		var o *sim.Op
		switch rng.Intn(9) {
		case 0:
			o = d.Kernel("k", dur, 1e9, dram, deps...)
		case 1:
			o = d.Offload("off", bytes, deps...)
		case 2:
			o = d.Prefetch("pre", bytes, deps...)
		case 3:
			o = d.Compress("cmp", dur, bytes, deps...)
		case 4:
			o = d.Decompress("dec", dur, bytes, deps...)
		case 5:
			o = d.PeerSend("p2p.send", bytes, aux[i], deps...)
		case 6:
			o = d.PeerRecv("p2p.recv", bytes, aux[i], deps...)
		case 7:
			o = d.StageSend("stage.send", bytes, aux[i], deps...)
		case 8:
			o = d.StageRecv("stage.recv", bytes, aux[i], deps...)
		}
		issued = append(issued, o)
		if rng.Intn(10) == 0 {
			tl.Wait(issued[rng.Intn(len(issued))])
		}
	}
	return devs
}

// referenceMeasure is Measure by brute force: it cuts the window at every
// clipped edge of a nonzero-duration op and, for each segment, scans all of
// the device's ops in ID order.
func referenceMeasure(d *Device, start, end sim.Time) Measurement {
	p := d.Spec.Power
	m := Measurement{PeerStart: -1, Power: PowerStats{AvgW: p.IdleW, MaxW: p.IdleW}}
	if end <= start {
		return m
	}
	var ops []*sim.Op
	for _, e := range []*sim.Engine{d.Compute, d.DMADown, d.DMAUp} {
		ops = append(ops, e.Ops()...)
	}
	sort.Slice(ops, func(i, j int) bool { return ops[i].ID < ops[j].ID })
	inWindow := func(o *sim.Op) bool { return o.DurationT > 0 && o.End > start && o.Start < end }
	isCodec := func(o *sim.Op) bool { return o.Kind == sim.OpCompress || o.Kind == sim.OpDecompress }

	cuts := []sim.Time{start, end}
	spanLo, spanHi := sim.Time(-1), sim.Time(0)
	for _, o := range ops {
		if o.Kind == sim.OpCopyP2P && o.End > start && o.Start < end {
			if m.PeerStart < 0 || o.Start < m.PeerStart {
				m.PeerStart = o.Start
			}
			if o.End > m.PeerEnd {
				m.PeerEnd = o.End
			}
		}
		if !inWindow(o) {
			continue
		}
		cuts = append(cuts, max(o.Start, start), min(o.End, end))
		if spanLo < 0 || o.Start < spanLo {
			spanLo = o.Start
		}
		spanHi = max(spanHi, o.End)
		switch {
		case o.Kind == sim.OpKernel:
			m.ComputeBusy += o.DurationT
		case isCodec(o):
			m.CopyBusy += o.DurationT
			m.CodecBusy += o.DurationT
		default:
			m.CopyBusy += o.DurationT
			if !d.UsePageMigration || o.Kind == sim.OpCopyP2P || o.Kind == sim.OpCopyStage {
				m.ContentionStall += max(0, o.DurationT-d.Spec.Link.DMATime(o.BusBytes))
			}
		}
		switch o.Kind {
		case sim.OpCopyD2H:
			m.OffloadBytes += o.BusBytes
		case sim.OpCopyH2D:
			m.PrefetchBytes += o.BusBytes
		case sim.OpCopyP2P:
			m.AllReduceBytes += o.BusBytes
		}
	}
	if spanLo >= 0 {
		m.Span = spanHi - spanLo
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })

	var energy float64
	for i := 0; i+1 < len(cuts); i++ {
		a, b := cuts[i], cuts[i+1]
		if a == b {
			continue
		}
		kernel := false
		copies, codecs := 0, 0
		var dramBps, kernelBps, copyBps, codecBps float64
		for _, o := range ops {
			if !inWindow(o) || max(o.Start, start) > a || a >= min(o.End, end) {
				continue
			}
			bps := float64(o.DRAMBytes) / o.DurationT.Seconds()
			switch {
			case o.Kind == sim.OpKernel:
				kernel = true
				kernelBps += bps
			case isCodec(o):
				codecs++
				codecBps += bps
			default:
				copies++
				copyBps += bps
			}
			dramBps += bps
		}
		w, computeW := p.IdleW, 0.0
		if kernel {
			w += p.ComputeW
			computeW = p.ComputeW
			m.Overlap += (b - a) * sim.Time(copies+codecs)
		}
		frac := min(dramBps/d.Spec.DRAMBps, 1)
		w += p.DRAMW * frac
		w += p.CopyW * float64(copies+codecs)
		dmaW, codecW := p.CopyW*float64(copies), p.CopyW*float64(codecs)
		if catBps := kernelBps + copyBps + codecBps; catBps > 0 {
			dram := p.DRAMW * frac
			computeW += dram * kernelBps / catBps
			dmaW += dram * copyBps / catBps
			codecW += dram * codecBps / catBps
		}
		s := (b - a).Seconds()
		energy += w * s
		m.Energy.IdleJ += p.IdleW * s
		m.Energy.ComputeJ += computeW * s
		m.Energy.DMAJ += dmaW * s
		m.Energy.CodecJ += codecW * s
		m.Power.MaxW = max(m.Power.MaxW, w)
	}
	m.Power.AvgW = energy / (end - start).Seconds()
	return m
}

// TestMeasureMatchesReference checks the one-pass walk against the
// brute-force reference on random schedules and windows: every integer
// exactly and every watt and joule bit for bit.
func TestMeasureMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		devs := randomSchedule(rng)
		if err := devs[0].TL.Validate(); err != nil {
			t.Fatalf("seed %d: invalid schedule: %v", seed, err)
		}
		lo, hi := devs[0].TL.Span()
		ops := devs[0].TL.Ops()
		edge := func() sim.Time { // a random op edge, so windows start or end on a tie
			o := ops[rng.Intn(len(ops))]
			if rng.Intn(2) == 0 {
				return o.Start
			}
			return o.End
		}
		windows := [][2]sim.Time{{lo, hi}, {lo, hi + sim.Millisecond}, {hi, hi}}
		for range 4 {
			a, b := lo+sim.Time(rng.Int63n(int64(hi-lo)+1)), edge()
			windows = append(windows, [2]sim.Time{min(a, b), max(a, b)}, [2]sim.Time{edge(), edge()})
		}
		for _, d := range devs {
			for _, w := range windows {
				got, want := d.Measure(w[0], w[1]), referenceMeasure(d, w[0], w[1])
				if got != want {
					t.Fatalf("seed %d device %d window %v:\n got %+v\nwant %+v", seed, d.ID, w, got, want)
				}
				if got.Overlap > got.CopyBusy || got.CodecBusy > got.CopyBusy {
					t.Fatalf("seed %d device %d window %v: overlap %v / codec %v exceed copy busy %v",
						seed, d.ID, w, got.Overlap, got.CodecBusy, got.CopyBusy)
				}
			}
		}
	}
}
