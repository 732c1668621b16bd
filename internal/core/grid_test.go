package core

import (
	"testing"

	"vdnn/internal/networks"
	"vdnn/internal/pcie"
)

// TestFailReasonPerGridShape pins the full untrainable report text for each
// trainer shape: one device (1×1), data parallelism (2×1) and a pipeline
// (1×2). The error prefixes depend on the grid shape — "device %d:" only
// with several replicas, "stage %d:" and "(mb %d)" only with several stages
// — and FailReason is a wire field, so the text must not drift.
func TestFailReasonPerGridShape(t *testing.T) {
	net := networks.VGG16(256)
	small := func(c Config) Config {
		c.Spec = c.Spec.WithMemory(2 << 30)
		return c
	}
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		// Setup failures: the baseline's network-wide allocations.
		{"1x1/setup", cfg(Baseline, PerfOptimal),
			`allocating fm7: memalloc: out of memory allocating 822083584 bytes for "fm7" (used 11369987072 of 11867521024, largest free 497533952)`},
		{"2x1/setup", multiCfg(Baseline, PerfOptimal, 2, pcie.SharedGen3Root()),
			`device 0: allocating fm7: memalloc: out of memory allocating 822083584 bytes for "fm7" (used 11369987072 of 11867521024, largest free 497533952)`},
		{"1x2/setup", small(Config{Spec: titan(), Policy: Baseline, Algo: MemOptimal, Stages: 2}),
			`stage 0: allocating fm1: memalloc: out of memory allocating 3288334336 bytes for "fm1" (used 163304448 of 2147483648, largest free 1984179200)`},
		// Mid-iteration failures: a vDNN layer allocation.
		{"1x1/layer", small(cfg(VDNNAll, MemOptimal)),
			`iteration 0: fwd conv1_1: allocating fm1: memalloc: out of memory allocating 3288334336 bytes for "fm1" (used 271858688 of 1130102784, largest free 858244096)`},
		{"2x1/layer", small(multiCfg(VDNNAll, MemOptimal, 2, pcie.SharedGen3Root())),
			`iteration 0: device 0: fwd conv1_1: allocating fm1: memalloc: out of memory allocating 3288334336 bytes for "fm1" (used 271858688 of 1130102784, largest free 858244096)`},
		{"1x2/layer", small(vggPP(2, 2)),
			`iteration 0: stage 0: fwd conv1_2 (mb 0): allocating fm2: memalloc: out of memory allocating 1644167168 bytes for "fm2" (used 1653330944 of 2147483648, largest free 417082368)`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r, err := Run(net, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if r.Trainable {
				t.Fatal("want an untrainable configuration")
			}
			if r.FailReason != tc.want {
				t.Errorf("FailReason:\n got %q\nwant %q", r.FailReason, tc.want)
			}
		})
	}
}
