package core

import (
	"testing"

	"vdnn/internal/networks"
	"vdnn/internal/pcie"
	"vdnn/internal/sim"
)

// multiCfg builds a data-parallel configuration.
func multiCfg(p Policy, a AlgoMode, devices int, top pcie.Topology) Config {
	return Config{Spec: titan(), Policy: p, Algo: a, Devices: devices, Topology: top}
}

// TestDevicesOneIsByteIdenticalToDefault: Devices == 1 (with or without a
// topology) must go down the exact single-device path — the refactor's
// degeneracy guarantee.
func TestDevicesOneIsByteIdenticalToDefault(t *testing.T) {
	base := run(t, vgg64, cfg(VDNNAll, MemOptimal))
	one, err := Run(vgg64, multiCfg(VDNNAll, MemOptimal, 1, pcie.SharedGen3Root()))
	if err != nil {
		t.Fatal(err)
	}
	if one.IterTime != base.IterTime || one.FETime != base.FETime ||
		one.MaxUsage != base.MaxUsage || one.AvgUsage != base.AvgUsage ||
		one.OffloadBytes != base.OffloadBytes || one.PrefetchBytes != base.PrefetchBytes {
		t.Fatalf("Devices=1 diverged from default:\n got %+v\nwant %+v", one, base)
	}
	if len(one.Devices) != 0 {
		t.Fatalf("single-device result carries %d DeviceResults", len(one.Devices))
	}
	// The normalized configs share one identity (cache-key property).
	a := multiCfg(VDNNAll, MemOptimal, 1, pcie.SharedGen3Root()).WithDefaults()
	b := cfg(VDNNAll, MemOptimal).WithDefaults()
	if a != b {
		t.Fatalf("normalized single-device configs differ:\n%+v\n%+v", a, b)
	}
}

// TestMultiGPUDedicatedNoContention: replicas on dedicated links never stall
// on the interconnect, and every replica moves the same traffic as the
// single-device run.
func TestMultiGPUDedicatedNoContention(t *testing.T) {
	single := run(t, alexNet, cfg(VDNNAll, MemOptimal))
	r, err := Run(alexNet, multiCfg(VDNNAll, MemOptimal, 2, pcie.Dedicated()))
	if err != nil {
		t.Fatal(err)
	}
	if !r.Trainable {
		t.Fatalf("untrainable: %s", r.FailReason)
	}
	if len(r.Devices) != 2 {
		t.Fatalf("got %d DeviceResults, want 2", len(r.Devices))
	}
	for _, d := range r.Devices {
		if d.ContentionStall != 0 {
			t.Errorf("device %d stalled %v on dedicated links", d.Device, d.ContentionStall)
		}
		if d.OffloadBytes != single.OffloadBytes {
			t.Errorf("device %d offloaded %d bytes, single-device run offloads %d",
				d.Device, d.OffloadBytes, single.OffloadBytes)
		}
		if d.StepTime <= 0 || d.StepTime > r.IterTime {
			t.Errorf("device %d step time %v outside (0, %v]", d.Device, d.StepTime, r.IterTime)
		}
	}
	if r.OffloadBytes != 2*single.OffloadBytes {
		t.Errorf("aggregate offload %d, want %d", r.OffloadBytes, 2*single.OffloadBytes)
	}
}

// TestMultiGPUSharedRootContention: on a single shared x16 uplink, replicas
// genuinely contend — transfers stall versus their dedicated-link time — and
// bandwidth conservation holds (execute validates the channels on every
// run; this test also checks the visible symptom).
func TestMultiGPUSharedRootContention(t *testing.T) {
	r, err := Run(alexNet, multiCfg(VDNNAll, MemOptimal, 4, pcie.SharedGen3Root()))
	if err != nil {
		t.Fatal(err)
	}
	if !r.Trainable {
		t.Fatalf("untrainable: %s", r.FailReason)
	}
	var stalled int
	for _, d := range r.Devices {
		if d.ContentionStall > 0 {
			stalled++
		}
		if d.OverlapEff < 0 || d.OverlapEff > 1 {
			t.Errorf("device %d overlap efficiency %v outside [0,1]", d.Device, d.OverlapEff)
		}
	}
	if stalled == 0 {
		t.Error("4 replicas on one x16 uplink and nobody stalled")
	}
}

// TestMultiGPUStepTimeMonotonic is the scale question the simulator exists
// to answer, as an invariant: under vDNN-all on a shared root complex, the
// mean per-replica step time never improves as replicas are added.
func TestMultiGPUStepTimeMonotonic(t *testing.T) {
	meanStep := func(devices int) sim.Time {
		if devices == 1 {
			return run(t, alexNet, cfg(VDNNAll, MemOptimal)).IterTime
		}
		r, err := Run(alexNet, multiCfg(VDNNAll, MemOptimal, devices, pcie.SharedGen3Root()))
		if err != nil {
			t.Fatal(err)
		}
		var sum sim.Time
		for _, d := range r.Devices {
			sum += d.StepTime
		}
		return sum / sim.Time(len(r.Devices))
	}
	prev := sim.Time(0)
	for _, n := range []int{1, 2, 4, 8} {
		step := meanStep(n)
		if step < prev {
			t.Fatalf("mean per-replica step time improved from %v to %v at %d devices", prev, step, n)
		}
		prev = step
	}
}

// TestAllReduceAccounting checks the ring all-reduce volume: each replica
// sends and receives 2(N-1) chunks of ceil(W/N) bytes, and every chunk
// crosses the root complex on both the sender's and the receiver's segment.
func TestAllReduceAccounting(t *testing.T) {
	const n = 4
	r, err := Run(alexNet, multiCfg(VDNNAll, MemOptimal, n, pcie.SharedGen3Root()))
	if err != nil {
		t.Fatal(err)
	}
	w := alexNet.TotalWeightBytes()
	chunk := (w + n - 1) / n
	perDevice := 2 * int64(2*(n-1)) * chunk // sends + receives
	for _, d := range r.Devices {
		if d.AllReduceBytes != perDevice {
			t.Errorf("device %d all-reduce bytes %d, want %d", d.Device, d.AllReduceBytes, perDevice)
		}
	}
	if want := int64(n) * perDevice; r.AllReduceBytes != want {
		t.Errorf("total all-reduce bytes %d, want %d", r.AllReduceBytes, want)
	}
	if r.AllReduceTime <= 0 {
		t.Error("all-reduce took no time")
	}
	// The baseline synchronizes gradients too — it is data parallelism, not
	// memory management, that makes the traffic.
	base, err := Run(alexNet, multiCfg(Baseline, PerfOptimal, n, pcie.SharedGen3Root()))
	if err != nil {
		t.Fatal(err)
	}
	if base.AllReduceBytes != r.AllReduceBytes {
		t.Errorf("baseline all-reduce %d != vDNN all-reduce %d", base.AllReduceBytes, r.AllReduceBytes)
	}
}

// TestAllReduceFollowsWeightUpdate: a normal data-parallel step carries
// gradient-sync traffic; the convnet-benchmarks timing protocol
// (SkipWeightUpdate) drops the sync together with the update it feeds, so
// no all-reduce transfer ever dangles past the iteration boundary.
func TestAllReduceFollowsWeightUpdate(t *testing.T) {
	r, err := Run(alexNet, multiCfg(VDNNAll, MemOptimal, 2, pcie.Dedicated()))
	if err != nil {
		t.Fatal(err)
	}
	if r.AllReduceBytes == 0 {
		t.Fatal("no all-reduce traffic in a 2-device run")
	}
	c := multiCfg(VDNNAll, MemOptimal, 2, pcie.SharedGen3Root())
	c.SkipWeightUpdate = true
	skipped, err := Run(alexNet, c)
	if err != nil {
		t.Fatal(err)
	}
	if skipped.AllReduceBytes != 0 || skipped.AllReduceTime != 0 {
		t.Fatalf("SkipWeightUpdate left all-reduce traffic: %d bytes over %v",
			skipped.AllReduceBytes, skipped.AllReduceTime)
	}
}

// TestMultiGPUScheduleCapture: captured schedules carry every replica as its
// own device track.
func TestMultiGPUScheduleCapture(t *testing.T) {
	c := multiCfg(VDNNAll, MemOptimal, 2, pcie.SharedGen3Root())
	c.CaptureSchedule = true
	r, err := Run(alexNet, c)
	if err != nil {
		t.Fatal(err)
	}
	devs := map[int]bool{}
	ar := 0
	for _, op := range r.Schedule {
		devs[op.Device] = true
		if op.Kind == "copyP2P" {
			ar++
		}
	}
	if !devs[0] || !devs[1] || len(devs) != 2 {
		t.Fatalf("schedule devices = %v, want {0, 1}", devs)
	}
	if ar == 0 {
		t.Error("no all-reduce ops in the captured schedule")
	}
	for i := 1; i < len(r.Schedule); i++ {
		if r.Schedule[i].Start < r.Schedule[i-1].Start {
			t.Fatal("schedule not sorted by start time")
		}
	}
}

// TestMultiGPUUntrainableReportsDemand: an oversubscribed multi-device
// configuration falls back to the oracular rerun like single-device runs.
func TestMultiGPUUntrainableReportsDemand(t *testing.T) {
	c := multiCfg(Baseline, PerfOptimal, 2, pcie.SharedGen3Root())
	r, err := Run(networks.VGG16(256), c)
	if err != nil {
		t.Fatal(err)
	}
	if r.Trainable {
		t.Fatal("baseline VGG-16 (256) trained on 12 GB")
	}
	if r.MaxUsage == 0 {
		t.Fatal("no hypothetical demand reported")
	}
}

// TestMultiGPUDeterminism: two identical multi-device simulations are
// op-for-op identical.
func TestMultiGPUDeterminism(t *testing.T) {
	c := multiCfg(VDNNAll, MemOptimal, 3, pcie.SharedGen3Root())
	c.CaptureSchedule = true
	a, err := Run(alexNet, c)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(alexNet, c)
	if err != nil {
		t.Fatal(err)
	}
	if a.IterTime != b.IterTime || len(a.Schedule) != len(b.Schedule) {
		t.Fatalf("nondeterministic: %v/%d vs %v/%d ops", a.IterTime, len(a.Schedule), b.IterTime, len(b.Schedule))
	}
	for i := range a.Schedule {
		if a.Schedule[i] != b.Schedule[i] {
			t.Fatalf("schedules diverge at op %d: %+v vs %+v", i, a.Schedule[i], b.Schedule[i])
		}
	}
}

// TestDeviceLimit: the replica count is bounded.
func TestDeviceLimit(t *testing.T) {
	if _, err := Run(alexNet, multiCfg(VDNNAll, MemOptimal, maxDevices+1, pcie.Topology{})); err == nil {
		t.Fatal("absurd device count accepted")
	}
}
