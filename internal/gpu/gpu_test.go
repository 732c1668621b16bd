package gpu

import (
	"testing"

	"vdnn/internal/sim"
)

func TestTitanXSpec(t *testing.T) {
	s := TitanX()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.PeakFlops != 7e12 {
		t.Errorf("peak flops = %v, want 7e12", s.PeakFlops)
	}
	if s.DRAMBps != 336e9 {
		t.Errorf("dram bw = %v, want 336e9", s.DRAMBps)
	}
	if s.MemBytes != 12<<30 {
		t.Errorf("mem = %d, want 12 GiB", s.MemBytes)
	}
	if s.PoolBytes() > s.MemBytes || s.PoolBytes() <= 0 {
		t.Errorf("pool bytes %d not in (0, mem]", s.PoolBytes())
	}
}

func TestSpecValidateCatchesErrors(t *testing.T) {
	bad := TitanX()
	bad.ReservedBytes = bad.MemBytes + 1
	if err := bad.Validate(); err == nil {
		t.Error("reservation > memory not caught")
	}
	bad2 := TitanX()
	bad2.EffDRAMFrac = 1.5
	if err := bad2.Validate(); err == nil {
		t.Error("EffDRAMFrac > 1 not caught")
	}
	bad3 := TitanX()
	bad3.PeakFlops = 0
	if err := bad3.Validate(); err == nil {
		t.Error("zero flops not caught")
	}
	bad4 := TitanX()
	bad4.L2Bytes = 0
	if err := bad4.Validate(); err == nil {
		t.Error("zero L2 not caught")
	}
}

func TestWithMemory(t *testing.T) {
	s := TitanX().WithMemory(24 << 30)
	if s.MemBytes != 24<<30 {
		t.Fatalf("WithMemory failed: %d", s.MemBytes)
	}
	if TitanX().MemBytes != 12<<30 {
		t.Fatal("WithMemory mutated the base spec")
	}
}

func TestNVLinkVariant(t *testing.T) {
	s := TitanXNVLink()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.Link.EffBps <= TitanX().Link.EffBps {
		t.Fatal("NVLink variant should have faster link")
	}
}

func TestDeviceOverlapSemantics(t *testing.T) {
	d := NewDevice(TitanX())
	d.Spec.LaunchOverhead = 0
	// Recreate with zero overheads for exact arithmetic.
	spec := TitanX()
	spec.LaunchOverhead, spec.SyncOverhead = 0, 0
	d = NewDevice(spec)

	k := d.Kernel("FWD(1)", 10*sim.Millisecond, 1e9, 1e6)
	off := d.Offload("OFF(1)", 64<<20) // 64 MB / 12.8 GB/s = 5 ms + setup
	if off.Start != 0 {
		t.Fatalf("offload start %v, want 0 (parallel with kernel)", off.Start)
	}
	if off.End >= k.End {
		t.Fatalf("offload should finish before the 10ms kernel: off end %v", off.End)
	}
	pre := d.Prefetch("PRE(1)", 64<<20)
	// Prefetch is on stream_memory after the offload (stream order), but on a
	// different engine; stream order still serializes it.
	if pre.Start < off.End {
		t.Fatalf("stream order violated: prefetch start %v before offload end %v", pre.Start, off.End)
	}
	if err := d.TL.Validate(); err != nil {
		t.Fatal(err)
	}
	m := d.Measure(0, pre.End)
	if m.OffloadBytes != 64<<20 || m.PrefetchBytes != 64<<20 {
		t.Fatalf("bus traffic down=%d up=%d, want 64 MiB each", m.OffloadBytes, m.PrefetchBytes)
	}
}

func TestCopyEnginesRunConcurrently(t *testing.T) {
	spec := TitanX()
	spec.LaunchOverhead, spec.SyncOverhead = 0, 0
	d := NewDevice(spec)
	// Issue D2H and H2D on *different* streams to show the engines themselves
	// are concurrent (dual copy engines on GM200).
	s2 := d.TL.NewStream("aux")
	a := d.TL.Issue(&sim.Op{Label: "off", Kind: sim.OpCopyD2H, DurationT: d.Spec.Link.DMATime(128 << 20), BusBytes: 128 << 20}, d.StreamMemory, d.DMADown)
	b := d.TL.Issue(&sim.Op{Label: "pre", Kind: sim.OpCopyH2D, DurationT: d.Spec.Link.DMATime(128 << 20), BusBytes: 128 << 20}, s2, d.DMAUp)
	if b.Start != 0 || a.Start != 0 {
		t.Fatalf("copy engines should run concurrently: a=%v b=%v", a.Start, b.Start)
	}
}

func TestPowerIdle(t *testing.T) {
	d := NewDevice(TitanX())
	p := d.Measure(0, sim.Second).Power
	if p.AvgW != d.Spec.Power.IdleW || p.MaxW != d.Spec.Power.IdleW {
		t.Fatalf("idle power = %+v, want idle %v", p, d.Spec.Power.IdleW)
	}
	// Degenerate window.
	p = d.Measure(5, 5).Power
	if p.AvgW != d.Spec.Power.IdleW {
		t.Fatalf("empty window avg = %v", p.AvgW)
	}
}

func TestPowerBusyKernel(t *testing.T) {
	spec := TitanX()
	spec.LaunchOverhead, spec.SyncOverhead = 0, 0
	d := NewDevice(spec)
	// One kernel for the full second at 50% of peak DRAM bandwidth.
	bytes := int64(0.5 * spec.DRAMBps)
	d.Kernel("k", sim.Second, 1e12, bytes)
	p := d.Measure(0, sim.Second).Power
	want := spec.Power.IdleW + spec.Power.ComputeW + 0.5*spec.Power.DRAMW
	if diff := p.AvgW - want; diff > 0.5 || diff < -0.5 {
		t.Fatalf("busy power = %.1f, want %.1f", p.AvgW, want)
	}
	if p.MaxW < p.AvgW {
		t.Fatalf("max %v < avg %v", p.MaxW, p.AvgW)
	}
}

func TestPowerOffloadRaisesPeak(t *testing.T) {
	spec := TitanX()
	spec.LaunchOverhead, spec.SyncOverhead = 0, 0

	// Run 1: kernel only.
	d1 := NewDevice(spec)
	d1.Kernel("k", 100*sim.Millisecond, 1e12, 20e9)
	p1 := d1.Measure(0, 100*sim.Millisecond).Power

	// Run 2: same kernel with a concurrent offload (vDNN's extra traffic).
	d2 := NewDevice(spec)
	d2.Kernel("k", 100*sim.Millisecond, 1e12, 20e9)
	d2.Offload("off", 1<<30)
	p2 := d2.Measure(0, 100*sim.Millisecond).Power

	if p2.MaxW <= p1.MaxW {
		t.Fatalf("offload should raise peak power: %.1f vs %.1f", p2.MaxW, p1.MaxW)
	}
	// The paper reports 1-7% max power overhead for vDNN's traffic; with one
	// copy engine active the model must stay in single-digit percent.
	overhead := (p2.MaxW - p1.MaxW) / p1.MaxW
	if overhead <= 0 || overhead > 0.10 {
		t.Fatalf("max power overhead = %.1f%%, want (0, 10]%%", overhead*100)
	}
}

func TestPowerPartialWindow(t *testing.T) {
	spec := TitanX()
	spec.LaunchOverhead, spec.SyncOverhead = 0, 0
	d := NewDevice(spec)
	d.Kernel("k", 100*sim.Millisecond, 1e12, 0)
	// Window covering half busy, half idle.
	p := d.Measure(50*sim.Millisecond, 150*sim.Millisecond).Power
	want := spec.Power.IdleW + 0.5*spec.Power.ComputeW
	if diff := p.AvgW - want; diff > 0.5 || diff < -0.5 {
		t.Fatalf("partial window avg = %.1f, want %.1f", p.AvgW, want)
	}
}

func TestTitanXFullLoadNearTDP(t *testing.T) {
	// Sanity-check calibration: compute + full DRAM + both copy engines
	// should land near (not wildly above) the 250 W board TDP.
	p := TitanX().Power
	full := p.IdleW + p.ComputeW + p.DRAMW + 2*p.CopyW
	if full < 240 || full > 300 {
		t.Fatalf("full load power %.0f W outside [240,300]", full)
	}
}
