package core

import (
	"testing"

	"vdnn/internal/dnn"
	"vdnn/internal/gpu"
	"vdnn/internal/networks"
)

// checkResult asserts the invariants of a trainable Result's measured
// window: the per-device rows sum to the Result's traffic and energy (in
// cell order, so the joules match bit for bit), each device's overlap is a
// fraction, its compute fits in its step, its codec time and contention
// stall fit in its copy time, and the all-reduce fits in the iteration.
func checkResult(t *testing.T, label string, r *Result) {
	t.Helper()
	if !r.Trainable {
		t.Fatalf("%s: untrainable: %s", label, r.FailReason)
	}
	if r.AllReduceTime < 0 || r.AllReduceTime > r.IterTime {
		t.Errorf("%s: all-reduce %v outside [0, iteration %v]", label, r.AllReduceTime, r.IterTime)
	}
	if len(r.Devices) == 0 {
		return
	}
	var off, pre, ar int64
	var energy gpu.EnergyStats
	for _, d := range r.Devices {
		off += d.OffloadBytes
		pre += d.PrefetchBytes
		ar += d.AllReduceBytes
		energy = energy.Add(d.Energy)
		if d.OverlapEff < 0 || d.OverlapEff > 1 {
			t.Errorf("%s: device %d overlap efficiency %v outside [0, 1]", label, d.Device, d.OverlapEff)
		}
		if d.ComputeBusy > d.StepTime {
			t.Errorf("%s: device %d compute busy %v exceeds its step %v", label, d.Device, d.ComputeBusy, d.StepTime)
		}
		if d.CodecBusy > d.CopyBusy || d.ContentionStall > d.CopyBusy {
			t.Errorf("%s: device %d codec %v or stall %v exceeds copy busy %v",
				label, d.Device, d.CodecBusy, d.ContentionStall, d.CopyBusy)
		}
	}
	if off != r.OffloadBytes || pre != r.PrefetchBytes || ar != r.AllReduceBytes {
		t.Errorf("%s: device traffic sums to offload %d, prefetch %d, all-reduce %d; Result has %d, %d, %d",
			label, off, pre, ar, r.OffloadBytes, r.PrefetchBytes, r.AllReduceBytes)
	}
	if energy != r.Energy {
		t.Errorf("%s: device energy sums to %+v, Result has %+v", label, energy, r.Energy)
	}
}

// TestDebugPeakLiveSumsToMaxUsage pins the Debug peak attribution
// (memalloc.Pool.SnapshotAt, via Result.DebugPeakLive): the live allocations
// it reconstructs at the pool's peak time add up to exactly the peak, and
// every label it lists holds a positive number of bytes.
func TestDebugPeakLiveSumsToMaxUsage(t *testing.T) {
	for _, net := range []*dnn.Network{networks.AlexNet(128), networks.VGG16(64), networks.GoogLeNet(64)} {
		for _, p := range []Policy{Baseline, VDNNAll, VDNNConv} {
			for _, a := range []AlgoMode{MemOptimal, PerfOptimal} {
				cfg := Config{Spec: gpu.TitanX(), Policy: p, Algo: a, Debug: true, Oracle: true}
				r, err := Run(net, cfg)
				if err != nil {
					t.Fatalf("%s %v %v: %v", net.Name, p, a, err)
				}
				var sum int64
				for label, n := range r.DebugPeakLive {
					if n <= 0 {
						t.Errorf("%s %v %v: %s holds %d bytes at the peak", net.Name, p, a, label, n)
					}
					sum += n
				}
				if sum != r.MaxUsage {
					t.Errorf("%s %v %v: live allocations at the peak sum to %d, MaxUsage %d", net.Name, p, a, sum, r.MaxUsage)
				}
			}
		}
	}
}
