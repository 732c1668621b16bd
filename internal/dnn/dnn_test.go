package dnn

import (
	"strings"
	"sync"
	"testing"

	"vdnn/internal/tensor"
)

// linearNet builds a small CONV->ACTV->CONV->ACTV->POOL->FC network.
func linearNet(t *testing.T, batch int) *Network {
	b := NewBuilder("tiny", batch, tensor.Float32)
	x := b.Input(3, 32, 32)
	x = b.Conv(x, "conv1", 16, 3, 1, 1)
	x = b.ReLU(x, "relu1")
	x = b.Conv(x, "conv2", 32, 3, 1, 1)
	x = b.ReLU(x, "relu2")
	x = b.MaxPool(x, "pool1", 2, 2, 0)
	x = b.FC(x, "fc", 10)
	b.SoftmaxLoss(x, "loss")
	n, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// forkNet builds a GoogLeNet-style fork/join (the paper's Figure 3): one
// producer feeding two branches that join in a concat.
func forkNet(t *testing.T) *Network {
	b := NewBuilder("fork", 8, tensor.Float32)
	x := b.Input(3, 16, 16)
	x = b.Conv(x, "conv1", 8, 3, 1, 1) // layer(1) in Fig 3
	br1 := b.Conv(x, "conv2", 8, 3, 1, 1)
	br2 := b.Conv(x, "conv3", 8, 1, 1, 0)
	j := b.Concat("join", br1, br2) // layer(5)'s input in Fig 3
	j = b.Conv(j, "conv4", 8, 3, 1, 1)
	j = b.FC(j, "fc", 10)
	b.SoftmaxLoss(j, "loss")
	n, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestLinearNetStructure(t *testing.T) {
	n := linearNet(t, 4)
	if got := len(n.Layers); got != 7 {
		t.Fatalf("layers = %d, want 7", got)
	}
	// In-place ReLU shares the conv's output buffer.
	conv1 := n.Layers[0]
	relu1 := n.Layers[1]
	conv2 := n.Layers[2]
	if relu1.Output != conv1.Output {
		t.Fatal("ReLU must be in place")
	}
	if conv2.In() != conv1.Output {
		t.Fatal("conv2 must read conv1's buffer through the in-place ReLU")
	}
	// That buffer's consumers are relu1 and conv2; last consumer is conv2.
	if lc := conv1.Output.LastConsumer(); lc != conv2 {
		t.Fatalf("last consumer = %v, want conv2", lc.Name)
	}
	// Shape inference: 3x32x32 -> conv(16) -> 16x32x32 -> conv(32) -> pool -> 32x16x16.
	pool := n.Layers[4]
	if pool.Output.Shape != tensor.NCHW(4, 32, 16, 16) {
		t.Fatalf("pool out = %v", pool.Output.Shape)
	}
}

func TestStageSplit(t *testing.T) {
	n := linearNet(t, 4)
	fe := n.FeatureLayers()
	cl := n.ClassifierLayers()
	if len(fe) != 5 || len(cl) != 2 {
		t.Fatalf("stage split = %d/%d, want 5/2", len(fe), len(cl))
	}
	for _, l := range cl {
		if l.Kind == Conv || l.Kind == Pool {
			t.Fatalf("layer %q misclassified as classifier", l.Name)
		}
	}
}

func TestWeightBytes(t *testing.T) {
	n := linearNet(t, 4)
	conv1 := n.Layers[0]
	// 16 filters * 3 ch * 3*3 * 4B + 16 biases * 4B.
	want := int64(16*3*9+16) * 4
	if got := conv1.WeightBytes(n.DType); got != want {
		t.Fatalf("conv1 weights = %d, want %d", got, want)
	}
	fc := n.Layers[5]
	// in = 32*16*16 = 8192 features -> 10.
	wantFC := int64(8192*10+10) * 4
	if got := fc.WeightBytes(n.DType); got != wantFC {
		t.Fatalf("fc weights = %d, want %d", got, wantFC)
	}
	if n.TotalWeightBytes() <= want+wantFC {
		t.Fatal("total weights must include conv2")
	}
}

func TestForkRefcounts(t *testing.T) {
	n := forkNet(t)
	conv1 := n.Layers[0]
	// Paper Fig 3: conv1's output is forked into two consumers (Refcnt=2).
	if got := len(conv1.Output.Consumer); got != 2 {
		t.Fatalf("fork refcount = %d, want 2", got)
	}
	// Last consumer is conv3 (higher layer ID).
	if lc := conv1.Output.LastConsumer(); lc.Name != "conv3" {
		t.Fatalf("last consumer = %q, want conv3", lc.Name)
	}
}

func TestConcatAliasing(t *testing.T) {
	n := forkNet(t)
	var join *Layer
	for _, l := range n.Layers {
		if l.Kind == Concat {
			join = l
		}
	}
	if join == nil {
		t.Fatal("no concat layer")
	}
	if join.Output.Shape.C != 16 {
		t.Fatalf("concat channels = %d, want 16", join.Output.Shape.C)
	}
	for _, in := range join.Inputs {
		if GradRoot(in) != join.Output {
			t.Fatal("branch gradient must alias the concat gradient")
		}
	}
}

func TestGradientInfosLinear(t *testing.T) {
	n := linearNet(t, 4)
	infos := GradientInfos(n)
	if len(infos) != len(n.Tensors) {
		t.Fatalf("gradient infos cover %d tensors, want %d", len(infos), len(n.Tensors))
	}
	// Buffers needing gradients: conv1.out, conv2.out, pool.out, fc.out.
	// The input has none; the loss output has none.
	roots := 0
	for id, gi := range infos {
		if gi == nil {
			continue
		}
		roots++
		if gi.Root.ID != id {
			t.Fatalf("gradient of tensor %d stored at index %d", gi.Root.ID, id)
		}
		if gi.Start > gi.End {
			t.Fatalf("inverted interval for tensor %d", gi.Root.ID)
		}
		if gi.FirstWriter.ID <= gi.Root.Producer.ID {
			t.Fatalf("gradient writer %q not after producer %q", gi.FirstWriter.Name, gi.Root.Producer.Name)
		}
	}
	if roots != 4 {
		t.Fatalf("gradient buffers = %d, want 4", roots)
	}
	if infos[n.Input.ID] != nil {
		t.Fatal("network input must not get a gradient buffer")
	}
}

func TestPlanGradientSlotsLinearIsTwoBuffers(t *testing.T) {
	// The baseline optimization the paper adopts from [38,39]: a linear
	// network needs only two shared gradient buffers sized to the largest dY.
	n := linearNet(t, 4)
	plan := PlanGradientSlots(n)
	if err := VerifyGradPlan(plan); err != nil {
		t.Fatal(err)
	}
	if len(plan.SlotBytes) != 2 {
		t.Fatalf("slots = %d, want 2 for a linear net", len(plan.SlotBytes))
	}
	// Largest dY is conv1's output: 4*16*32*32*4 bytes.
	want := int64(4*16*32*32) * 4
	if plan.SlotBytes[0] != want && plan.SlotBytes[1] != want {
		t.Fatalf("no slot sized to max dY %d: %v", want, plan.SlotBytes)
	}
	if plan.TotalBytes() >= n.FeatureMapBytes() {
		t.Fatal("shared gradients should be far below total feature maps")
	}
}

func TestPlanGradientSlotsFork(t *testing.T) {
	n := forkNet(t)
	plan := PlanGradientSlots(n)
	if err := VerifyGradPlan(plan); err != nil {
		t.Fatal(err)
	}
	// Branch outputs alias the concat gradient, so they must not appear as
	// separate slot assignments.
	for root := range plan.SlotOf {
		if root.GradShare != nil {
			t.Fatal("aliased branch gradient got its own slot")
		}
	}
}

func TestValidateCatchesCycleish(t *testing.T) {
	// Hand-build a broken net: a layer consuming a tensor produced later.
	b := NewBuilder("bad", 2, tensor.Float32)
	x := b.Input(3, 8, 8)
	y := b.Conv(x, "conv1", 4, 3, 1, 1)
	n, err := b.Finalize()
	_ = y
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt: make conv1 consume its own output.
	n.Layers[0].Inputs = []*Tensor{n.Layers[0].Output}
	if err := n.Validate(); err == nil {
		t.Fatal("validate should reject consume-before-produce")
	}
}

// TestValidateRejectsForeignTensors: a tensor whose ID does not index the
// network's tensor list back to itself is an error, never an index panic.
func TestValidateRejectsForeignTensors(t *testing.T) {
	for name, corrupt := range map[string]func(n *Network){
		"input ID out of range":  func(n *Network) { n.Layers[0].Inputs = []*Tensor{{ID: len(n.Tensors)}} },
		"input ID negative":      func(n *Network) { n.Layers[1].Inputs = []*Tensor{{ID: -1}} },
		"input aliases a slot":   func(n *Network) { n.Layers[1].Inputs = []*Tensor{{ID: n.Layers[0].Output.ID}} },
		"nil input":              func(n *Network) { n.Layers[1].Inputs = []*Tensor{nil} },
		"output ID out of range": func(n *Network) { n.Layers[0].Output = &Tensor{ID: 99} },
		"network input foreign":  func(n *Network) { n.Input = &Tensor{ID: 0} },
	} {
		b := NewBuilder("net", 2, tensor.Float32)
		x := b.Input(3, 8, 8)
		b.Conv(b.Conv(x, "conv1", 4, 3, 1, 1), "conv2", 4, 3, 1, 1)
		n, err := b.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		corrupt(n)
		if err := n.Validate(); err == nil {
			t.Errorf("%s: validate accepted the corrupted network", name)
		}
	}
}

// TestValidateRejectsUnderivedNetwork: a network assembled as a literal,
// not by Finalize, has no graph analyses; Validate reports that instead of
// letting an executor index the missing slices.
func TestValidateRejectsUnderivedNetwork(t *testing.T) {
	n := linearNet(t, 4)
	lit := &Network{Name: n.Name, Batch: n.Batch, DType: n.DType, Layers: n.Layers, Tensors: n.Tensors, Input: n.Input}
	if err := lit.Validate(); err == nil || !strings.Contains(err.Error(), "Finalize") {
		t.Fatalf("Validate of a network literal = %v, want an error naming Finalize", err)
	}
	if err := n.Validate(); err != nil {
		t.Fatalf("Validate of the finalized network: %v", err)
	}
}

func TestBuilderErrors(t *testing.T) {
	b := NewBuilder("bad", 2, tensor.Float32)
	x := b.Input(3, 8, 8)
	b.DropoutLayer(x, "d", 1.5) // invalid probability
	if _, err := b.Finalize(); err == nil || !strings.Contains(err.Error(), "dropout") {
		t.Fatalf("want dropout error, got %v", err)
	}

	b2 := NewBuilder("bad2", 2, tensor.Float32)
	if _, err := b2.Finalize(); err == nil {
		t.Fatal("want missing-input error")
	}

	b3 := NewBuilder("bad3", 2, tensor.Float32)
	x3 := b3.Input(3, 8, 8)
	y3 := b3.Conv(x3, "c", 4, 3, 1, 1)
	z3 := b3.Conv(x3, "c2", 4, 3, 1, 2) // different spatial size
	b3.Concat("j", y3, z3)
	if _, err := b3.Finalize(); err == nil {
		t.Fatal("want concat shape mismatch error")
	}
}

func TestBadBatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("batch 0 did not panic")
		}
	}()
	NewBuilder("x", 0, tensor.Float32)
}

func TestConvGeomOnNonConvPanics(t *testing.T) {
	n := linearNet(t, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("ConvGeom on pool did not panic")
		}
	}()
	n.Layers[4].ConvGeom(n.DType) // pool layer
}

func TestMaskBytes(t *testing.T) {
	b := NewBuilder("d", 4, tensor.Float32)
	x := b.Input(3, 8, 8)
	x = b.FC(x, "fc", 100)
	x = b.DropoutLayer(x, "drop", 0.5)
	b.SoftmaxLoss(x, "loss")
	n, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	var drop *Layer
	for _, l := range n.Layers {
		if l.Kind == Dropout {
			drop = l
		}
	}
	if got := drop.MaskBytes(n.DType); got != 4*100*4 {
		t.Fatalf("mask bytes = %d, want %d", got, 4*100*4)
	}
	if n.Layers[0].MaskBytes(n.DType) != 0 {
		t.Fatal("non-dropout layer has mask bytes")
	}
}

func TestSummary(t *testing.T) {
	n := linearNet(t, 4)
	s := n.Summary()
	if s.ConvLayers != 2 || s.FCLayers != 1 || s.Layers != 7 {
		t.Fatalf("summary = %+v", s)
	}
	if s.WeightBytes != n.TotalWeightBytes() || s.FeatureMapBytes != n.FeatureMapBytes() {
		t.Fatal("summary totals inconsistent")
	}
}

func TestKindAndStageNames(t *testing.T) {
	if Conv.String() != "CONV" || ReLU.String() != "ACTV" || SoftmaxLoss.String() != "LOSS" {
		t.Fatal("kind names wrong")
	}
	if FeatureExtraction.String() != "feature-extraction" || Classifier.String() != "classifier" {
		t.Fatal("stage names wrong")
	}
}

func TestAddJoinStructure(t *testing.T) {
	b := NewBuilder("res", 4, tensor.Float32)
	x := b.Input(3, 16, 16)
	x = b.Conv(x, "conv0", 8, 3, 1, 1)
	branch := b.Conv(x, "conv1", 8, 3, 1, 1)
	branch = b.BatchNormLayer(branch, "bn1")
	y := b.AddJoin("add", x, branch)
	y = b.ReLU(y, "relu")
	y = b.FC(y, "fc", 10)
	b.SoftmaxLoss(y, "loss")
	n, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	var add *Layer
	for _, l := range n.Layers {
		if l.Kind == Add {
			add = l
		}
	}
	if add == nil {
		t.Fatal("no add layer")
	}
	if add.Output.Shape != add.Inputs[0].Shape {
		t.Fatal("add must preserve shape")
	}
	// Both inputs' gradients alias the add output's gradient.
	for _, in := range add.Inputs {
		if GradRoot(in) != add.Output {
			t.Fatalf("input fm%d gradient not shared with add output", in.ID)
		}
	}
	// Add backward reads nothing; BN backward reads X and Y.
	if len(add.BwdReads()) != 0 {
		t.Fatal("add backward should be pure views")
	}
	for _, l := range n.Layers {
		if l.Kind == BatchNorm {
			if len(l.BwdReads()) != 2 {
				t.Fatal("BN backward must read X and Y")
			}
			if l.WeightBytes(n.DType) != 4*8*4 {
				t.Fatalf("BN params = %d bytes, want 4*C*4", l.WeightBytes(n.DType))
			}
		}
	}
	plan := PlanGradientSlots(n)
	if err := VerifyGradPlan(plan); err != nil {
		t.Fatal(err)
	}
}

func TestAddJoinShapeMismatch(t *testing.T) {
	b := NewBuilder("bad", 4, tensor.Float32)
	x := b.Input(3, 16, 16)
	a := b.Conv(x, "a", 8, 3, 1, 1)
	c := b.Conv(x, "c", 16, 3, 1, 1) // different channels
	b.AddJoin("add", a, c)
	if _, err := b.Finalize(); err == nil {
		t.Fatal("mismatched add shapes accepted")
	}
}

func TestWithDTypeScalesBytes(t *testing.T) {
	n := linearNet(t, 4)
	srcFP := Fingerprint(n)
	var srcBytes []int64
	for _, gi := range GradientInfos(n) {
		if gi != nil {
			srcBytes = append(srcBytes, gi.Bytes)
		}
	}
	h := n.WithDType(tensor.Float16)
	if h.FeatureMapBytes()*2 != n.FeatureMapBytes() {
		t.Fatalf("fp16 fm bytes %d, want half of %d", h.FeatureMapBytes(), n.FeatureMapBytes())
	}
	if n.DType != tensor.Float32 {
		t.Fatal("WithDType mutated the original")
	}
	// The copy derives analyses of its own: every gradient root's buffer
	// halves, and the source network's analyses are untouched.
	src, half := GradientInfos(n), GradientInfos(h)
	if len(half) != len(src) {
		t.Fatalf("fp16 gradient infos cover %d tensors, want %d", len(half), len(src))
	}
	roots := 0
	for id, gi := range src {
		if gi == nil {
			if half[id] != nil {
				t.Fatalf("fp16 copy has a gradient for tensor %d, source has none", id)
			}
			continue
		}
		if half[id] == nil || half[id].Bytes*2 != gi.Bytes {
			t.Fatalf("tensor %d: fp16 gradient %+v, want half of %d bytes", id, half[id], gi.Bytes)
		}
		if gi.Bytes != srcBytes[roots] {
			t.Fatalf("tensor %d: WithDType changed the source gradient to %d bytes, was %d",
				id, gi.Bytes, srcBytes[roots])
		}
		roots++
	}
	if roots != 4 {
		t.Fatalf("gradient roots = %d, want 4", roots)
	}
	if fp := Fingerprint(h); fp == srcFP || fp == "" {
		t.Fatalf("fp16 fingerprint %q must differ from the source's", fp)
	}
	if Fingerprint(n) != srcFP {
		t.Fatal("WithDType changed the source network's fingerprint")
	}
}

// TestFingerprintIdentity checks that the fingerprint is the network's
// structural identity: equal graphs share a non-empty fingerprint, and a
// different batch changes it.
func TestFingerprintIdentity(t *testing.T) {
	n := linearNet(t, 4)
	fp := Fingerprint(n)
	if fp == "" || fp != Fingerprint(linearNet(t, 4)) {
		t.Fatalf("equal graphs must share a non-empty fingerprint")
	}
	if fp == Fingerprint(linearNet(t, 8)) {
		t.Errorf("a different batch must change the fingerprint")
	}
}

// TestFingerprintConcurrentFirstUse races the first Fingerprint calls on one
// network: every caller must see the same, fully computed value (run under
// -race to check the lazy initialization).
func TestFingerprintConcurrentFirstUse(t *testing.T) {
	n := linearNet(t, 4)
	want := Fingerprint(linearNet(t, 4))
	const callers = 8
	got := make([]string, callers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = Fingerprint(n)
		}()
	}
	wg.Wait()
	for i, fp := range got {
		if fp != want {
			t.Fatalf("caller %d saw fingerprint %q, want %q", i, fp, want)
		}
	}
}
