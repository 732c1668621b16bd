package figures

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// The headline numbers of the reproduction, pinned at the precision the
// figures print them. A refactor that claims to leave the simulation alone
// must leave these alone; each failure names the paper's own value so a
// deliberate model change can be judged against it.

// cell returns the table cell of the row whose first column is row.
func cell(t *testing.T, rows [][]string, row string, col int) string {
	t.Helper()
	for _, r := range rows {
		if r[0] == row {
			return r[col]
		}
	}
	t.Fatalf("no row %q", row)
	return ""
}

func TestHeadlineFig11Savings(t *testing.T) {
	tb := suite.Fig11()
	for _, c := range []struct {
		net        string
		want       string
		paperSaves string
	}{
		{"AlexNet (128)", "84%", "89%"},
		{"OverFeat (128)", "88%", "91%"},
		{"GoogLeNet (128)", "93%", "95%"},
	} {
		if got := cell(t, tb.Rows, c.net, 8); got != c.want {
			t.Errorf("%s vDNN-all(m) average savings %s, pinned %s (paper: %s)", c.net, got, c.want, c.paperSaves)
		}
	}
}

func TestHeadlineFig14Dyn(t *testing.T) {
	tb := suite.Fig14()
	if len(tb.Rows) != 6 {
		t.Fatalf("Fig14 rows = %d, want the 6 conventional networks", len(tb.Rows))
	}
	var sum float64
	worst := 1e9
	for _, r := range tb.Rows {
		v, err := strconv.ParseFloat(r[5], 64)
		if err != nil {
			t.Fatalf("%s dyn cell %q: %v", r[0], r[5], err)
		}
		sum += v
		worst = min(worst, v)
	}
	if got := fmt.Sprintf("%.2f", sum/float64(len(tb.Rows))); got != "0.95" {
		t.Errorf("vDNN-dyn mean normalized performance %s, pinned 0.95 (paper: 0.97)", got)
	}
	if got := fmt.Sprintf("%.2f", worst); got != "0.77" {
		t.Errorf("vDNN-dyn worst normalized performance %s, pinned 0.77 (paper: 0.82)", got)
	}
}

func TestHeadlineVGG16BaselineDemand(t *testing.T) {
	tb := suite.Fig11()
	got := cell(t, tb.Rows, "VGG-16 (256)", 7)
	if maxMB, _, _ := strings.Cut(got, "/"); maxMB != "28502" {
		t.Errorf("VGG-16 (256) base(p) demand %s MB (cell %q), pinned 28502 MB (paper: 28 GB)", maxMB, got)
	}
}

func TestHeadlineFig6ReuseDistance(t *testing.T) {
	tb := suite.Fig6()
	if got := cell(t, tb.Rows, "conv1_1", 3); got != "2183.9" {
		t.Errorf("VGG-16 (64) conv1_1 reuse distance %s ms, pinned 2183.9 ms (paper: over 1200 ms)", got)
	}
}

func TestHeadlineFig12Offload(t *testing.T) {
	tb := suite.Fig12()
	for _, c := range []struct {
		col  int
		name string
		want string
	}{
		{1, "vDNN-all", "14847"},
		{2, "vDNN-conv", "8869"},
	} {
		if got := cell(t, tb.Rows, "VGG-16 (256)", c.col); got != c.want {
			t.Errorf("VGG-16 (256) %s offload %s MB, pinned %s MB (paper: ~15-16 GB)", c.name, got, c.want)
		}
	}
}

func TestHeadlineFig13Bandwidth(t *testing.T) {
	tb := suite.Fig13()
	if got := cell(t, tb.Rows, "conv1_1", 3); got != "85%" {
		t.Errorf("VGG-16 (128) conv1_1 at %s of the 336 GB/s peak, pinned 85%% (paper: every layer leaves headroom for <= 16 GB/s PCIe traffic)", got)
	}
	worst := 0
	for _, r := range tb.Rows {
		worst = max(worst, parsePct(t, r[3]))
	}
	if worst != 85 {
		t.Errorf("worst layer at %d%% of peak, pinned 85%% at conv1_1 (paper: every layer leaves headroom for <= 16 GB/s PCIe traffic)", worst)
	}
}

func TestHeadlineFig15(t *testing.T) {
	tb := suite.Fig15()
	for _, c := range []struct {
		net  string
		want string
	}{
		{"VGG-116 (32)", "81%"},
		{"VGG-216 (32)", "87%"},
		{"VGG-316 (32)", "89%"},
		{"VGG-416 (32)", "91%"},
	} {
		if got := cell(t, tb.Rows, c.net, 3); got != c.want {
			t.Errorf("%s vDNN-dyn CPU share %s, pinned %s (paper: 81-92%%)", c.net, got, c.want)
		}
	}
	if got := cell(t, tb.Rows, "VGG-416 (32)", 4); got != "68446" {
		t.Errorf("VGG-416 (32) base requirement %s MB, pinned 68446 MB (paper: 67.1 GB)", got)
	}
}
