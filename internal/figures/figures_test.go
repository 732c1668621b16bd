package figures

import (
	"fmt"
	"strings"
	"testing"

	"vdnn/internal/core"
	"vdnn/internal/dnn"
	"vdnn/internal/gpu"
	"vdnn/internal/networks"
	"vdnn/internal/sweep"
)

// One shared suite: figure generation is expensive enough to memoize across
// tests.
var suite = NewSuite(gpu.TitanX())

func TestFig1(t *testing.T) {
	tb := suite.Fig1()
	if len(tb.Rows) != 10 {
		t.Fatalf("Fig1 rows = %d, want 10 studied DNNs", len(tb.Rows))
	}
	no := 0
	for _, r := range tb.Rows {
		if r[3] == "no" {
			no++
		}
	}
	if no != 6 {
		t.Fatalf("Fig1: %d untrainable networks, paper says 6 of 10", no)
	}
}

func TestFig4FeatureMapShareGrows(t *testing.T) {
	tb := suite.Fig4()
	if len(tb.Rows) != 10 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// Feature-map share: VGG-416 (last row) must exceed AlexNet (first row).
	fa, fv := parsePct(t, tb.Rows[0][7]), parsePct(t, tb.Rows[9][7])
	if fv <= fa {
		t.Fatalf("feature-map share should grow with depth: %d%% -> %d%%", fa, fv)
	}
}

func parsePct(t *testing.T, s string) int {
	t.Helper()
	var v int
	if _, err := fmt.Sscanf(strings.TrimSuffix(s, "%"), "%d", &v); err != nil {
		t.Fatalf("parsing %q: %v", s, err)
	}
	return v
}

func TestFig5(t *testing.T) {
	tb := suite.Fig5()
	// 13 CONV + 3 FC rows.
	if len(tb.Rows) != 16 {
		t.Fatalf("Fig5 rows = %d, want 16", len(tb.Rows))
	}
	// First conv row must dwarf its weights (paper: order of magnitude).
	if tb.Rows[0][1] <= tb.Rows[0][2] {
		t.Fatalf("conv1_1 fm+ws (%s MB) should exceed weights (%s MB)", tb.Rows[0][1], tb.Rows[0][2])
	}
}

func TestFig6(t *testing.T) {
	tb := suite.Fig6()
	if len(tb.Rows) != 16 {
		t.Fatalf("Fig6 rows = %d, want 16", len(tb.Rows))
	}
}

func TestFig11(t *testing.T) {
	tb := suite.Fig11()
	if len(tb.Rows) != 6 {
		t.Fatalf("Fig11 rows = %d, want 6", len(tb.Rows))
	}
	// VGG-16 (256): base cells starred, all(m) not.
	last := tb.Rows[5]
	if !strings.HasSuffix(last[6], "*") || !strings.HasSuffix(last[7], "*") {
		t.Fatalf("VGG-16(256) baseline cells not starred: %v", last)
	}
	if strings.HasSuffix(last[1], "*") {
		t.Fatalf("VGG-16(256) all(m) should train: %v", last)
	}
}

func TestFig12(t *testing.T) {
	tb := suite.Fig12()
	if len(tb.Rows) != 6 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
}

func TestFig13(t *testing.T) {
	tb := suite.Fig13()
	if len(tb.Rows) != 16 {
		t.Fatalf("rows = %d, want 16 (13 CONV + 3 FC)", len(tb.Rows))
	}
}

func TestFig14(t *testing.T) {
	tb := suite.Fig14()
	if len(tb.Rows) != 6 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
}

func TestFig15(t *testing.T) {
	tb := suite.Fig15()
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 very deep networks", len(tb.Rows))
	}
}

func TestPower(t *testing.T) {
	tb := suite.Power()
	// VGG-16 (256) excluded: 5 rows.
	if len(tb.Rows) != 5 {
		t.Fatalf("power rows = %d, want 5 (paper excludes VGG-16 (256))", len(tb.Rows))
	}
}

func TestAblations(t *testing.T) {
	if rows := len(suite.AblationPrefetch().Rows); rows != 4 {
		t.Fatalf("prefetch ablation rows = %d", rows)
	}
	if rows := len(suite.AblationPageMigration().Rows); rows != 2 {
		t.Fatalf("page-migration ablation rows = %d", rows)
	}
	if rows := len(suite.AblationInterconnect().Rows); rows != 3 {
		t.Fatalf("interconnect ablation rows = %d", rows)
	}
	if rows := len(suite.AblationCapacity().Rows); rows != 6 {
		t.Fatalf("capacity ablation rows = %d", rows)
	}
	if rows := len(suite.AblationBatchScaling().Rows); rows != 6 {
		t.Fatalf("batch ablation rows = %d", rows)
	}
}

func TestSuiteMemoization(t *testing.T) {
	s := NewSuite(gpu.TitanX())
	n1 := s.net(func() *dnn.Network { return networks.AlexNet(8) }, "a8")
	n2 := s.net(func() *dnn.Network { return networks.AlexNet(8) }, "a8")
	if n1 != n2 {
		t.Fatal("network memoization broken")
	}
	jobs := []sweep.Job{{Net: n1, Cfg: core.Config{Spec: s.Spec}}}
	r1 := s.Prime(jobs)[0]
	r2 := s.Prime(jobs)[0]
	if r1 != r2 {
		t.Fatal("result memoization broken")
	}
}

func TestAblationWeightOffload(t *testing.T) {
	tb := suite.AblationWeightOffload()
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// "Less of a memory saving benefit": extra savings under 10%.
	for _, r := range tb.Rows {
		if p := parsePct(t, r[3]); p < 0 || p > 10 {
			t.Errorf("%s: weight-offload extra savings %d%%, want small positive", r[0], p)
		}
	}
}

func TestCaseStudies(t *testing.T) {
	mg := suite.CaseStudyMultiGPU()
	if len(mg.Rows) != 2 {
		t.Fatalf("multigpu rows = %d", len(mg.Rows))
	}
	pr := suite.CaseStudyPrecision()
	if len(pr.Rows) != 3 {
		t.Fatalf("precision rows = %d", len(pr.Rows))
	}
	// FP16 alone rescues batch 128 but not the very deep net; vDNN does.
	if pr.Rows[0][4] != "yes" || pr.Rows[2][4] != "no" || pr.Rows[2][5] != "yes" {
		t.Fatalf("precision table shape wrong: %v", pr.Rows)
	}
	dv := suite.CaseStudyDevices()
	if len(dv.Rows) != 5 {
		t.Fatalf("devices rows = %d", len(dv.Rows))
	}
	// The 4 GB GTX 980 cannot hold even vDNN's batch-256 working set.
	for _, r := range dv.Rows {
		if strings.Contains(r[0], "980") && r[3] != "no" {
			t.Errorf("GTX 980 should fail VGG-16 (256) even with vDNN: %v", r)
		}
		if strings.Contains(r[0], "P100") && r[3] != "yes" {
			t.Errorf("P100 should train VGG-16 (256) with vDNN: %v", r)
		}
	}
}

func TestCaseStudyResNet(t *testing.T) {
	tb := suite.CaseStudyResNet()
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// vDNN must extend the trainable batch beyond the baseline's ceiling.
	baseMax, dynMax := -1, -1
	for i, r := range tb.Rows {
		if r[2] == "yes" {
			baseMax = i
		}
		if r[3] == "yes" {
			dynMax = i
		}
	}
	if dynMax <= baseMax {
		t.Fatalf("vDNN should extend ResNet-152 batch scaling: base idx %d, dyn idx %d", baseMax, dynMax)
	}
}
