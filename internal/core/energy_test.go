package core

import (
	"math"
	"testing"

	"vdnn/internal/compress"
	"vdnn/internal/gpu"
	"vdnn/internal/pcie"
	"vdnn/internal/sim"
)

// energyTol is the relative tolerance of the conservation invariant. The
// breakdown is accumulated by the same sweep that integrates average power,
// so the two only diverge by float re-association — orders of magnitude
// tighter than this bound.
const energyTol = 1e-9

// checkConserved asserts the per-op joule breakdown sums to the power
// timeline integral over the measurement window: TotalJ == AvgW × window.
func checkConserved(t *testing.T, label string, e gpu.EnergyStats, avgW float64, window sim.Time) {
	t.Helper()
	want := avgW * float64(window) / float64(sim.Second)
	got := e.TotalJ()
	if want <= 0 {
		t.Fatalf("%s: degenerate window (avg %.3f W over %v)", label, avgW, window)
	}
	if rel := math.Abs(got-want) / want; rel > energyTol {
		t.Errorf("%s: energy breakdown %.9f J != power integral %.9f J (rel err %.3g)",
			label, got, want, rel)
	}
	for _, b := range []struct {
		name string
		j    float64
	}{{"compute", e.ComputeJ}, {"dma", e.DMAJ}, {"codec", e.CodecJ}, {"idle", e.IdleJ}} {
		if b.j < 0 || math.IsNaN(b.j) {
			t.Errorf("%s: %s bucket = %v J", label, b.name, b.j)
		}
	}
}

// TestEnergyConservationSingle checks the invariant on a single device
// for every offload policy, with and without a compression codec.
func TestEnergyConservationSingle(t *testing.T) {
	zvc := compress.Config{Codec: compress.CodecZVC}
	cases := []struct {
		label string
		cfg   Config
	}{
		{"baseline", cfg(Baseline, PerfOptimal)},
		{"all-m", cfg(VDNNAll, MemOptimal)},
		{"conv-p", cfg(VDNNConv, PerfOptimal)},
		{"dyn", cfg(VDNNDyn, PerfOptimal)},
		{"all-m-zvc", Config{Spec: titan(), Policy: VDNNAll, Algo: MemOptimal, Compression: zvc}},
		{"dyn-zvc", Config{Spec: titan(), Policy: VDNNDyn, Compression: zvc}},
	}
	for _, c := range cases {
		r := run(t, vgg64, c.cfg)
		checkResult(t, c.label, r)
		checkConserved(t, c.label, r.Energy, r.Power.AvgW, r.IterTime)
		if r.Energy.ComputeJ <= 0 || r.Energy.IdleJ <= 0 {
			t.Errorf("%s: compute %.3f J, idle %.3f J — both should be positive",
				c.label, r.Energy.ComputeJ, r.Energy.IdleJ)
		}
		// dyn may settle on the no-offload baseline when the net fits, so
		// gate the traffic buckets on traffic actually moving.
		if r.OffloadBytes > 0 && r.Energy.DMAJ <= 0 {
			t.Errorf("%s: offloaded %d bytes but spent no DMA energy", c.label, r.OffloadBytes)
		}
		if c.cfg.Compression.Enabled() && r.OffloadBytes > 0 && r.Energy.CodecJ <= 0 {
			t.Errorf("%s: active codec spent no codec energy", c.label)
		}
		if !c.cfg.Compression.Enabled() && r.Energy.CodecJ != 0 {
			t.Errorf("%s: codec-free run charged %.3f J to codec", c.label, r.Energy.CodecJ)
		}
	}
}

// TestEnergyConservationDataParallel checks the invariant per replica and
// that the Result-level energy is the whole-fleet sum (unlike Power, which
// keeps replica 0's view).
func TestEnergyConservationDataParallel(t *testing.T) {
	r := run(t, alexNet, Config{Spec: titan(), Policy: VDNNConv, Algo: PerfOptimal,
		Compression: compress.Config{Codec: compress.CodecZVC},
		Devices:     4, Topology: pcie.SharedGen3Root()})
	checkResult(t, "data-parallel", r)
	if len(r.Devices) != 4 {
		t.Fatalf("device rows = %d", len(r.Devices))
	}
	var sum gpu.EnergyStats
	for _, d := range r.Devices {
		checkConserved(t, "replica", d.Energy, d.Power.AvgW, r.IterTime)
		sum = sum.Add(d.Energy)
	}
	if sum != r.Energy {
		t.Errorf("Result.Energy %+v != sum of replicas %+v", r.Energy, sum)
	}
	// The fleet burns strictly more than any one replica.
	if r.Energy.TotalJ() <= r.Devices[0].Energy.TotalJ() {
		t.Errorf("fleet energy %.3f J <= one replica's %.3f J",
			r.Energy.TotalJ(), r.Devices[0].Energy.TotalJ())
	}
}

// TestEnergyConservationPipeline checks the invariant per stage device and
// the whole-pipeline sum.
func TestEnergyConservationPipeline(t *testing.T) {
	r := run(t, vgg64, Config{Spec: titan(), Policy: VDNNConv, Algo: PerfOptimal,
		Compression: compress.Config{Codec: compress.CodecZVC},
		Stages:      2, Topology: pcie.SharedGen3Root()})
	checkResult(t, "pipeline", r)
	if len(r.Devices) != 2 {
		t.Fatalf("device rows = %d", len(r.Devices))
	}
	var sum gpu.EnergyStats
	for _, d := range r.Devices {
		checkConserved(t, "stage", d.Energy, d.Power.AvgW, r.IterTime)
		sum = sum.Add(d.Energy)
	}
	if sum != r.Energy {
		t.Errorf("Result.Energy %+v != sum of stages %+v", r.Energy, sum)
	}
}

// TestEnergyBackends checks the catalog's new backends express the points
// they were added for: the near-memory accelerator's offload traffic is
// nearly free (on-die fabric), so its DMA energy share collapses relative
// to a PCIe-attached part running the identical schedule policy.
func TestEnergyBackends(t *testing.T) {
	titanRes := run(t, vgg64, Config{Spec: gpu.TitanX(), Policy: VDNNAll, Algo: MemOptimal})
	rapid := run(t, vgg64, Config{Spec: gpu.RapidNN(), Policy: VDNNAll, Algo: MemOptimal})
	checkConserved(t, "titanx", titanRes.Energy, titanRes.Power.AvgW, titanRes.IterTime)
	checkConserved(t, "rapidnn", rapid.Energy, rapid.Power.AvgW, rapid.IterTime)
	titanShare := titanRes.Energy.DMAJ / titanRes.Energy.TotalJ()
	rapidShare := rapid.Energy.DMAJ / rapid.Energy.TotalJ()
	if rapidShare >= titanShare {
		t.Errorf("near-memory DMA energy share %.4f should undercut PCIe share %.4f",
			rapidShare, titanShare)
	}
	p100 := run(t, vgg64, Config{Spec: gpu.PascalP100(), Policy: VDNNAll, Algo: MemOptimal})
	checkConserved(t, "p100", p100.Energy, p100.Power.AvgW, p100.IterTime)
	if p100.IterTime >= titanRes.IterTime {
		t.Errorf("P100 (HBM + NVLink) step %.1f ms should beat Titan X %.1f ms",
			p100.IterTime.Msec(), titanRes.IterTime.Msec())
	}
}
