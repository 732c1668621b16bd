package core

import (
	"encoding/json"
	"strings"
	"testing"

	"vdnn/internal/compress"
	"vdnn/internal/gpu"
	"vdnn/internal/networks"
	"vdnn/internal/pcie"
)

// vggPP is the pipeline reference configuration: VGG-16 (64) under
// vDNN-all(m), the acceptance case.
func vggPP(stages, microBatches int) Config {
	return Config{
		Spec: gpu.TitanX(), Policy: VDNNAll, Algo: MemOptimal,
		Stages: stages, MicroBatches: microBatches,
	}
}

func resultJSON(t *testing.T, r *Result) string {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestPipelineDefaults pins the Config normalization: Stages=1 (and the zero
// value) keep the exact zero-config cache key, while Stages>1 defaults
// micro-batches and the shared topology.
func TestPipelineDefaults(t *testing.T) {
	zero := Config{}.WithDefaults()
	one := Config{Stages: 1, MicroBatches: 7, StageCuts: "3,5"}.WithDefaults()
	if zero != one {
		t.Fatalf("Stages=1 config normalized to %+v, want the zero-config %+v", one, zero)
	}
	pp := Config{Stages: 4}.WithDefaults()
	if pp.MicroBatches != 4 {
		t.Fatalf("MicroBatches defaulted to %d, want Stages (4)", pp.MicroBatches)
	}
	if pp.Topology != pcie.SharedGen3Root() {
		t.Fatalf("pipeline topology defaulted to %v, want shared-x16", pp.Topology)
	}
}

// TestPipelineStagesOneIdentical: a Stages=1 configuration runs as the
// single-device (1×1) grid and produces the byte-identical Result of the
// zero-value configuration.
func TestPipelineStagesOneIdentical(t *testing.T) {
	net := traceNet(t)
	base, err := Run(net, Config{Spec: gpu.TitanX(), Policy: VDNNAll, Algo: MemOptimal, CaptureSchedule: true})
	if err != nil {
		t.Fatal(err)
	}
	one, err := Run(net, Config{Spec: gpu.TitanX(), Policy: VDNNAll, Algo: MemOptimal, CaptureSchedule: true,
		Stages: 1, MicroBatches: 9, StageCuts: "2"})
	if err != nil {
		t.Fatal(err)
	}
	if a, b := resultJSON(t, base), resultJSON(t, one); a != b {
		t.Fatalf("Stages=1 result diverged from the zero-value configuration:\n%s\nvs\n%s", b, a)
	}
}

// TestPipelineVGG16FourStages is the acceptance case: a 4-stage VGG-16
// pipeline trains, shows a nonzero measured bubble, covers every layer in
// exactly one stage, and conserves inter-stage bytes (every stage's sends
// are received, activations and gradients alike).
func TestPipelineVGG16FourStages(t *testing.T) {
	net := networks.VGG16(64)
	r, err := Run(net, vggPP(4, 0))
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, "4-stage VGG-16", r)
	if len(r.Stages) != 4 || len(r.Devices) != 4 {
		t.Fatalf("got %d stages, %d devices, want 4, 4", len(r.Stages), len(r.Devices))
	}
	if r.MicroBatches != 4 {
		t.Fatalf("MicroBatches = %d, want the defaulted 4", r.MicroBatches)
	}

	// Exact layer cover.
	next := 0
	for _, s := range r.Stages {
		if s.FirstLayer != next || s.LastLayer < s.FirstLayer {
			t.Fatalf("stage %d covers [%d,%d], want to start at %d", s.Stage, s.FirstLayer, s.LastLayer, next)
		}
		next = s.LastLayer + 1
	}
	if next != len(net.Layers) {
		t.Fatalf("stages cover %d layers, network has %d", next, len(net.Layers))
	}

	// Nonzero bubble: the fill/drain phases leave every stage partly idle.
	if r.BubbleTime <= 0 {
		t.Fatalf("BubbleTime = %v, want > 0", r.BubbleTime)
	}
	if r.BubbleFraction <= 0 || r.BubbleFraction >= 1 {
		t.Fatalf("BubbleFraction = %v, want in (0,1)", r.BubbleFraction)
	}
	for _, s := range r.Stages {
		if s.BubbleTime < 0 || s.ComputeBusy <= 0 {
			t.Fatalf("stage %d: bubble %v, busy %v", s.Stage, s.BubbleTime, s.ComputeBusy)
		}
	}

	// Conservation across the shared topology: every wire byte sent between
	// stages is received, and the aggregate matches InterStageBytes.
	var send, recv int64
	for _, s := range r.Stages {
		send += s.SendBytes
		recv += s.RecvBytes
	}
	if send != recv {
		t.Fatalf("inter-stage bytes not conserved: sent %d, received %d", send, recv)
	}
	if send != r.InterStageBytes || send == 0 {
		t.Fatalf("InterStageBytes = %d, stage sends sum to %d (want equal, nonzero)", r.InterStageBytes, send)
	}
	if r.InterStageRawBytes != r.InterStageBytes {
		t.Fatalf("uncompressed run: raw %d != wire %d", r.InterStageRawBytes, r.InterStageBytes)
	}
	// Interior stages both send and receive; the ends do one of each plus
	// the returning gradient leg, so nothing is zero.
	for _, s := range r.Stages {
		if s.SendBytes == 0 || s.RecvBytes == 0 {
			t.Fatalf("stage %d: send %d, recv %d, want both nonzero", s.Stage, s.SendBytes, s.RecvBytes)
		}
	}

	// vDNN still offloads within stages.
	if r.OffloadBytes == 0 || r.PrefetchBytes == 0 {
		t.Fatalf("per-stage vDNN traffic missing: offload %d, prefetch %d", r.OffloadBytes, r.PrefetchBytes)
	}
}

// TestPipelineDeterminism: identical configurations produce byte-identical
// results.
func TestPipelineDeterminism(t *testing.T) {
	net := networks.VGG16(64)
	a, err := Run(net, vggPP(4, 8))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(net, vggPP(4, 8))
	if err != nil {
		t.Fatal(err)
	}
	if x, y := resultJSON(t, a), resultJSON(t, b); x != y {
		t.Fatal("pipeline simulation is not deterministic")
	}
}

// TestPipelineMoreMicroBatchesShrinkBubble: the GPipe bubble fraction
// (S−1)/(M+S−1) falls with the micro-batch count; the measured fraction
// follows.
func TestPipelineMoreMicroBatchesShrinkBubble(t *testing.T) {
	net := networks.VGG16(64)
	coarse, err := Run(net, vggPP(4, 2))
	if err != nil {
		t.Fatal(err)
	}
	fine, err := Run(net, vggPP(4, 8))
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, "M=2", coarse)
	checkResult(t, "M=8", fine)
	if fine.BubbleFraction >= coarse.BubbleFraction {
		t.Fatalf("bubble fraction did not shrink: M=2 %.3f vs M=8 %.3f",
			coarse.BubbleFraction, fine.BubbleFraction)
	}
}

// TestPipelineExplicitCuts honors user cut points and rejects invalid ones.
func TestPipelineExplicitCuts(t *testing.T) {
	net := networks.VGG16(64)
	cfg := vggPP(2, 2)
	cfg.StageCuts = "13"
	r, err := Run(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Stages[0].LastLayer != 12 || r.Stages[1].FirstLayer != 13 {
		t.Fatalf("explicit cut at 13 ignored: stages %+v", r.Stages)
	}

	for _, bad := range []struct {
		stages int
		cuts   string
	}{
		{2, "13,20"}, // cut count != stages-1
		{2, "0"},     // out of range
		{2, "x"},     // unparsable
		{3, "13,13"}, // not increasing
	} {
		cfg := vggPP(bad.stages, 2)
		cfg.StageCuts = bad.cuts
		if _, err := Run(net, cfg); err == nil {
			t.Fatalf("cuts %q with %d stages: want error", bad.cuts, bad.stages)
		}
	}
}

// TestPipelineConfigErrors covers the validation surface: stage counts
// beyond the layer count or device limit, and the incompatible knobs.
func TestPipelineConfigErrors(t *testing.T) {
	net := traceNet(t)
	base := Config{Spec: gpu.TitanX(), Policy: VDNNAll, Algo: MemOptimal}

	tooMany := base
	tooMany.Stages = len(net.Layers) + 1
	if _, err := Run(net, tooMany); err == nil || !strings.Contains(err.Error(), "exceed") {
		t.Fatalf("Stages > layers: got %v", err)
	}

	overLimit := base
	overLimit.Stages = maxDevices + 1
	if _, err := Run(net, overLimit); err == nil {
		t.Fatal("Stages > maxDevices: want error")
	}

	both := base
	both.Stages, both.Devices = 2, 2
	if _, err := Run(net, both); err == nil {
		t.Fatal("Stages with Devices: want error")
	}

	weights := base
	weights.Stages, weights.OffloadWeights = 2, true
	if _, err := Run(net, weights); err == nil {
		t.Fatal("Stages with OffloadWeights: want error")
	}
}

// TestPipelineWithCompression: the compressing DMA engine shrinks both the
// per-stage offload traffic and the inter-stage activation transfers, while
// gradients stay dense — so inter-stage wire bytes land strictly between
// half the raw bytes and all of them.
func TestPipelineWithCompression(t *testing.T) {
	net := networks.VGG16(64)
	cfg := vggPP(4, 4)
	cfg.Compression = compress.Config{Codec: compress.CodecZVC}
	r, err := Run(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, "zvc", r)
	if r.OffloadBytes >= r.OffloadRawBytes {
		t.Fatalf("offload did not compress: wire %d, raw %d", r.OffloadBytes, r.OffloadRawBytes)
	}
	if r.InterStageBytes >= r.InterStageRawBytes {
		t.Fatalf("inter-stage activations did not compress: wire %d, raw %d",
			r.InterStageBytes, r.InterStageRawBytes)
	}
	if 2*r.InterStageBytes <= r.InterStageRawBytes {
		t.Fatalf("gradients must stay dense: wire %d vs raw %d", r.InterStageBytes, r.InterStageRawBytes)
	}

	// The codec only ever removes wire bytes.
	plain, err := Run(net, vggPP(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	if r.InterStageBytes > plain.InterStageBytes {
		t.Fatalf("compression increased inter-stage traffic: %d > %d", r.InterStageBytes, plain.InterStageBytes)
	}
}

// TestPipelinePolicies: the baseline manager and the dynamic profiler both
// run under pipeline partitioning.
func TestPipelinePolicies(t *testing.T) {
	net := traceNet(t)
	for _, p := range []Policy{Baseline, VDNNConv, VDNNDyn} {
		cfg := Config{Spec: gpu.TitanX(), Policy: p, Algo: MemOptimal, Stages: 2}
		r, err := Run(net, cfg)
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		checkResult(t, p.String(), r)
		if len(r.Stages) != 2 {
			t.Fatalf("%v: %d stages", p, len(r.Stages))
		}
		if r.InterStageBytes == 0 {
			t.Fatalf("%v: no inter-stage traffic", p)
		}
	}
}

// TestPipelineUntrainable: a pipeline that oversubscribes a stage's pool
// reports the oracle demand with Trainable == false, like every other
// configuration.
func TestPipelineUntrainable(t *testing.T) {
	net := networks.VGG16(256)
	cfg := vggPP(2, 2)
	cfg.Spec = cfg.Spec.WithMemory(2 << 30)
	r, err := Run(net, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Trainable {
		t.Fatal("VGG-16 (256) on a 2 GB device pipeline: want untrainable")
	}
	if r.FailReason == "" || r.MaxUsage == 0 {
		t.Fatalf("missing oracle demand: reason %q, max %d", r.FailReason, r.MaxUsage)
	}
}

// TestChromeTraceGoldenPipeline pins the pipeline trace: one process lane
// per stage (pid = stage, labeled with its layer range), inter-stage PPS/PPR
// transfers on the copy tracks, deterministic byte for byte.
func TestChromeTraceGoldenPipeline(t *testing.T) {
	checkGolden(t, Config{Spec: gpu.TitanX(), Policy: VDNNAll, Algo: MemOptimal,
		Stages: 2, MicroBatches: 2},
		"chrome_trace_pipeline.golden.json")
}

// TestDeviceImbalance: the per-device compute-imbalance helper reports 1 for
// symmetric data-parallel replicas and the max/mean ratio for pipeline
// stages.
func TestDeviceImbalance(t *testing.T) {
	net := traceNet(t)
	single, err := Run(net, Config{Spec: gpu.TitanX(), Policy: VDNNAll, Algo: MemOptimal})
	if err != nil {
		t.Fatal(err)
	}
	if got := single.DeviceImbalance(); got != 1 {
		t.Fatalf("single device imbalance = %v, want 1", got)
	}
	dp, err := Run(net, Config{Spec: gpu.TitanX(), Policy: VDNNAll, Algo: MemOptimal,
		Devices: 2, Topology: pcie.SharedGen3Root()})
	if err != nil {
		t.Fatal(err)
	}
	if got := dp.DeviceImbalance(); got < 1 || got > 1.01 {
		t.Fatalf("symmetric replicas imbalance = %v, want ~1", got)
	}
	pp, err := Run(networks.VGG16(64), vggPP(4, 4))
	if err != nil {
		t.Fatal(err)
	}
	if got := pp.DeviceImbalance(); got < 1 {
		t.Fatalf("pipeline imbalance = %v, want >= 1", got)
	}
}
