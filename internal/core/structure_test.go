package core

import (
	"context"
	"reflect"
	"sort"
	"testing"

	"vdnn/internal/gpu"
	"vdnn/internal/memalloc"
	"vdnn/internal/networks"
)

// replays reports whether Fits replays the trace at capacity c. Outside
// [peak, fit) Fits answers from its bounds without allocating; inside it
// replays into a fresh pool. That is how this test finds the band from
// outside package memalloc.
func replays(tr *memalloc.Trace, c int64) bool {
	return testing.AllocsPerRun(1, func() { tr.Fits(c) }) > 0
}

// TestPriceEqualsRunContext pins the structure/pricing split to the full
// path: for one structure, Price returns exactly RunContext's Result at
// capacities that reach each of its branches — an oracle request, a pool
// no larger than the classifier, below the trace's peak, inside
// [peak, fit) and at or above fit — with and without Debug. A structure
// built at an untrainable capacity is the same structure, and the build
// returns RunContext's untrainable report.
func TestPriceEqualsRunContext(t *testing.T) {
	net := networks.AlexNet(64)
	ctx := context.Background()
	for _, debug := range []bool{false, true} {
		base := Config{Spec: gpu.TitanX(), Policy: VDNNAll, Algo: PerfOptimal, Debug: debug}
		st, _, err := BuildStructureAt(ctx, net, base)
		if err != nil {
			t.Fatalf("debug %t: BuildStructureAt: %v", debug, err)
		}
		tr, fw := st.trace, st.Res.FrameworkBytes
		tr.Fits(1) // computes the bounds

		// The bounds, found by bisection: below peak Fits neither fits nor
		// replays; from fit up it fits without replaying.
		search := func(pred func(c int64) bool) int64 {
			return int64(sort.Search(1<<40, func(c int) bool { return pred(int64(c)) }))
		}
		peak := search(func(c int64) bool { return tr.Fits(c) || replays(tr, c) })
		fit := search(func(c int64) bool { return tr.Fits(c) && !replays(tr, c) })
		if peak >= fit {
			t.Fatalf("debug %t: empty band [%d, %d)", debug, peak, fit)
		}

		spec := func(pool int64) gpu.Spec {
			s := base.Spec
			s.MemBytes = s.ReservedBytes + fw + pool
			return s
		}
		cases := []struct {
			name   string
			spec   gpu.Spec
			oracle bool
		}{
			{"oracle", spec(peak / 2), true},
			{"classifier", spec(0), false},
			{"below peak", spec(peak - 1), false},
			{"band low", spec(peak), false},
			{"band high", spec(fit - 1), false},
			{"fit", spec(fit), false},
			{"above fit", spec(2 * fit), false},
		}
		for _, c := range cases {
			cfg := base
			cfg.Spec, cfg.Oracle = c.spec, c.oracle
			want, err := RunContext(ctx, net, cfg)
			if err != nil {
				t.Fatalf("debug %t, %s: RunContext: %v", debug, c.name, err)
			}
			got, ok, err := st.Price(ctx, net, cfg)
			if err != nil || !ok {
				t.Fatalf("debug %t, %s: Price = ok %t, err %v", debug, c.name, ok, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("debug %t, %s: Price differs from RunContext (trainable %t vs %t, %q vs %q)",
					debug, c.name, got.Trainable, want.Trainable, got.FailReason, want.FailReason)
			}
		}

		cfg := base
		cfg.Spec = spec(peak - 1)
		want, err := RunContext(ctx, net, cfg)
		if err != nil {
			t.Fatalf("debug %t: RunContext below peak: %v", debug, err)
		}
		if want.Trainable {
			t.Fatalf("debug %t: trainable below the trace's peak", debug)
		}
		low, got, err := BuildStructureAt(ctx, net, cfg)
		if err != nil {
			t.Fatalf("debug %t: BuildStructureAt below peak: %v", debug, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("debug %t: untrainable build's Result differs from RunContext", debug)
		}
		if !reflect.DeepEqual(low.Res, st.Res) {
			t.Errorf("debug %t: structure built below peak differs from the one built at capacity", debug)
		}
	}
}

// TestPriceAllocs pins the cost of the two answers Price gives without
// touching the trace's pool: the Result copy is its only allocation.
func TestPriceAllocs(t *testing.T) {
	net := networks.AlexNet(64)
	ctx := context.Background()
	cfg := Config{Spec: gpu.TitanX(), Policy: VDNNAll, Algo: PerfOptimal}
	st, res, err := BuildStructureAt(ctx, net, cfg)
	if err != nil {
		t.Fatalf("BuildStructureAt: %v", err)
	}
	if !res.Trainable {
		t.Fatalf("structure's own capacity is untrainable")
	}
	fits := cfg
	fits.Spec = cfg.Spec.WithMemory(1 << 40)
	oracle := cfg
	oracle.Oracle = true
	for name, c := range map[string]Config{"at or above fit": fits, "oracle": oracle} {
		if n := testing.AllocsPerRun(20, func() { st.Price(ctx, net, c) }); n != 1 {
			t.Errorf("%s: Price allocates %v times, want 1", name, n)
		}
	}
}
