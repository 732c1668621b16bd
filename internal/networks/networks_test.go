package networks

import (
	"strings"
	"testing"

	"vdnn/internal/dnn"
	"vdnn/internal/tensor"
)

func TestAlexNetShapes(t *testing.T) {
	n := AlexNet(128)
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	s := n.Summary()
	if s.ConvLayers != 5 || s.FCLayers != 3 {
		t.Fatalf("AlexNet = %d CONV + %d FC, want 5+3", s.ConvLayers, s.FCLayers)
	}
	// conv1 out 55x55, pool5 out 256x6x6 -> fc6 input 9216.
	var fc6 *dnn.Layer
	for _, l := range n.Layers {
		if l.Name == "fc6" {
			fc6 = l
		}
	}
	if fc6.In().Shape.PerSample() != 9216 {
		t.Fatalf("fc6 input features = %d, want 9216", fc6.In().Shape.PerSample())
	}
	// AlexNet weights ~61M params: (244 MB in fp32) within 15%.
	params := n.TotalWeightBytes() / 4
	if params < 55e6 || params > 70e6 {
		t.Fatalf("AlexNet params = %d, want ~61M", params)
	}
}

func TestOverFeatShapes(t *testing.T) {
	n := OverFeat(128)
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	var fc6 *dnn.Layer
	for _, l := range n.Layers {
		if l.Name == "fc6" {
			fc6 = l
		}
	}
	// pool5: 1024 x 6 x 6 = 36864 features.
	if fc6.In().Shape.PerSample() != 36864 {
		t.Fatalf("fc6 input = %d, want 36864", fc6.In().Shape.PerSample())
	}
	// OverFeat fast has ~145M params.
	params := n.TotalWeightBytes() / 4
	if params < 130e6 || params > 160e6 {
		t.Fatalf("OverFeat params = %d, want ~145M", params)
	}
}

func TestGoogLeNetShapes(t *testing.T) {
	n := GoogLeNet(128)
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	s := n.Summary()
	// 2 stem convs + 9 modules * 6 convs = 56 + ... : stem has conv1,
	// conv2_reduce, conv2 = 3 convs; 9*6 = 54; total 57.
	if s.ConvLayers != 57 {
		t.Fatalf("GoogLeNet conv layers = %d, want 57", s.ConvLayers)
	}
	if s.FCLayers != 1 {
		t.Fatalf("GoogLeNet FC layers = %d, want 1", s.FCLayers)
	}
	// ~7M params (6.8-7.2M range plus LRN-free stem variations).
	params := n.TotalWeightBytes() / 4
	if params < 5e6 || params > 8e6 {
		t.Fatalf("GoogLeNet params = %d, want ~7M", params)
	}
	// Check inception output channel progression at the known module joins.
	wantC := map[string]int{
		"inception_3a/output": 256, "inception_3b/output": 480,
		"inception_4a/output": 512, "inception_4e/output": 832,
		"inception_5b/output": 1024,
	}
	for _, l := range n.Layers {
		if c, ok := wantC[l.Name]; ok && l.Output.Shape.C != c {
			t.Errorf("%s channels = %d, want %d", l.Name, l.Output.Shape.C, c)
		}
	}
	// Spatial pyramid: 3x modules at 28, 4x at 14, 5x at 7 after final pool.
	for _, l := range n.Layers {
		if l.Name == "inception_3a/output" && l.Output.Shape.H != 28 {
			t.Errorf("3a spatial = %d, want 28", l.Output.Shape.H)
		}
		if l.Name == "inception_4a/output" && l.Output.Shape.H != 14 {
			t.Errorf("4a spatial = %d, want 14", l.Output.Shape.H)
		}
		if l.Name == "inception_5b/output" && l.Output.Shape.H != 7 {
			t.Errorf("5b spatial = %d, want 7", l.Output.Shape.H)
		}
	}
}

func TestGoogLeNetForkRefcounts(t *testing.T) {
	n := GoogLeNet(32)
	// Every inception module input feeds 4 branches (paper Fig 3's fork):
	// 3 convs + 1 pool.
	forks := 0
	for _, tt := range n.Tensors {
		if len(tt.Consumer) == 4 {
			forks++
		}
	}
	if forks < 9 {
		t.Fatalf("inception forks with refcount 4 = %d, want >= 9", forks)
	}
}

func TestVGG16Shapes(t *testing.T) {
	n := VGG16(256)
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	s := n.Summary()
	// VGG Model D: 13 CONV + 3 FC (see the package comment on why Model D).
	if s.ConvLayers != 13 || s.FCLayers != 3 {
		t.Fatalf("VGG-16 = %d CONV + %d FC, want 13+3", s.ConvLayers, s.FCLayers)
	}
	// fc6 reads 512x7x7 = 25088 features.
	for _, l := range n.Layers {
		if l.Name == "fc6" && l.In().Shape.PerSample() != 25088 {
			t.Fatalf("fc6 in = %d, want 25088", l.In().Shape.PerSample())
		}
	}
	// VGG-16 Model D weights: ~138M params.
	params := n.TotalWeightBytes() / 4
	if params < 133e6 || params > 144e6 {
		t.Fatalf("VGG params = %d, want ~138M", params)
	}
	// Feature maps at batch 256 must be in the paper's ballpark (~14.5 GB;
	// the dominant share of the 28 GB total allocation).
	fm := n.FeatureMapBytes()
	if fm < 13<<30 || fm > 16<<30 {
		t.Fatalf("VGG-16(256) feature maps = %s, want ~14.5 GB", tensor.FormatBytes(fm))
	}
	// conv1_2's buffer: 256x64x224x224 = 3136 MiB, the paper's canonical
	// largest feature map.
	var maxFM int64
	for _, tt := range n.Tensors {
		if b := tt.Bytes(n.DType); b > maxFM {
			maxFM = b
		}
	}
	if mib := tensor.MiB(maxFM); mib < 3135 || mib > 3137 {
		t.Fatalf("largest fm = %.0f MiB, want 3136", mib)
	}
}

func TestVGGDeepLayerCounts(t *testing.T) {
	for _, tc := range []struct {
		layers int
		batch  int
	}{{116, 32}, {216, 32}, {316, 32}, {416, 32}} {
		n := VGGDeep(tc.layers, tc.batch)
		if err := n.Validate(); err != nil {
			t.Fatalf("VGG-%d: %v", tc.layers, err)
		}
		// Model D base has 13 CONVs; each +100 step adds 5*20 = 100.
		want := 13 + (tc.layers-16)/100*100
		if got := n.Summary().ConvLayers; got != want {
			t.Fatalf("VGG-%d built %d conv layers, want %d", tc.layers, got, want)
		}
	}
}

func TestVGGDeepMemoryScaling(t *testing.T) {
	// Section V-E: baseline memory grows ~14x from VGG-16 to VGG-416 at
	// batch 32. Feature maps dominate, so check their growth factor.
	fm16 := VGG16(32).FeatureMapBytes()
	fm416 := VGGDeep(416, 32).FeatureMapBytes()
	ratio := float64(fm416) / float64(fm16)
	if ratio < 12 || ratio > 40 {
		t.Fatalf("fm growth VGG-16 -> VGG-416 = %.1fx, want order ~14-30x", ratio)
	}
	// Monotone growth across the series.
	prev := fm16
	for _, layers := range []int{116, 216, 316, 416} {
		fm := VGGDeep(layers, 32).FeatureMapBytes()
		if fm <= prev {
			t.Fatalf("VGG-%d fm %d not > previous %d", layers, fm, prev)
		}
		prev = fm
	}
}

func TestVGGDeepRejectsBadDepth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("VGGDeep(50) did not panic")
		}
	}()
	VGGDeep(50, 32)
}

func TestBenchmarkSets(t *testing.T) {
	conv := Conventional()
	if len(conv) != 6 {
		t.Fatalf("Conventional = %d nets, want 6", len(conv))
	}
	vd := VeryDeep()
	if len(vd) != 4 {
		t.Fatalf("VeryDeep = %d nets, want 4", len(vd))
	}
	all := All()
	if len(all) != 10 {
		t.Fatalf("All = %d nets, want 10 (the paper's studied DNNs)", len(all))
	}
	for _, n := range all {
		if err := n.Validate(); err != nil {
			t.Errorf("%s: %v", n.Name, err)
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range Names() {
		n, err := ByName(name, 16)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if n.Batch != 16 {
			t.Fatalf("%s batch = %d", name, n.Batch)
		}
	}
	if _, err := ByName("resnet", 16); err == nil || !strings.Contains(err.Error(), "unknown") {
		t.Fatalf("want unknown-network error, got %v", err)
	}
}

func TestGradPlansForAllNetworks(t *testing.T) {
	// The gradient liveness planner must produce valid plans for every
	// studied topology, including GoogLeNet's fork/join graph.
	for _, n := range []*dnn.Network{AlexNet(16), OverFeat(16), GoogLeNet(16), VGG16(16)} {
		plan := dnn.PlanGradientSlots(n)
		if err := dnn.VerifyGradPlan(plan); err != nil {
			t.Errorf("%s: %v", n.Name, err)
		}
		// Shared gradient memory must be far below per-buffer allocation.
		var naive int64
		for _, gi := range plan.Infos {
			naive += gi.Bytes
		}
		if plan.TotalBytes() >= naive {
			t.Errorf("%s: sharing saved nothing (%d vs %d)", n.Name, plan.TotalBytes(), naive)
		}
	}
}

func TestLinearVGGUsesTwoGradSlots(t *testing.T) {
	plan := dnn.PlanGradientSlots(VGG16(64))
	if len(plan.SlotBytes) != 2 {
		t.Fatalf("VGG-16 gradient slots = %d, want 2 (paper Section IV-A)", len(plan.SlotBytes))
	}
}
