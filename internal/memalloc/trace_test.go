package memalloc

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"vdnn/internal/sim"
)

// randomTrace records a seeded random call sequence that exercises every
// allocator path a replay can take: small first-fit blocks, big feature maps
// in a few repeating sizes (so freed ones are binned and reused), frees
// scheduled into the future, explicit Flush calls, and big short-lived
// workspaces freed as soon as they are allocated — the pattern whose dip in
// free space leaves no mark on the pool after the next call. It records
// against a roomy pool so every call succeeds.
func randomTrace(seed int64) *Trace {
	rng := rand.New(rand.NewSource(seed))
	tr := &Trace{}
	p := NewTraced(1<<40, tr)
	bigSizes := []int64{64 << 20, 96 << 20, 160 << 20, 256 << 20}
	var live []*Block
	var now sim.Time
	for i := 0; i < 300; i++ {
		now += sim.Time(rng.Intn(4))
		switch r := rng.Intn(22); {
		case r < 7:
			kind := Kind(rng.Intn(int(numKinds)))
			b, err := p.Alloc(now, rng.Int63n(48<<20)+1, kind, "small")
			if err != nil {
				panic(err)
			}
			live = append(live, b)
		case r < 12:
			size := bigSizes[rng.Intn(len(bigSizes))] - rng.Int63n(512)
			b, err := p.Alloc(now, size, KindFeatureMap, "big")
			if err != nil {
				panic(err)
			}
			live = append(live, b)
		case r < 14:
			b, err := p.Alloc(now, rng.Int63n(512<<20)+1, KindWorkspace, "workspace")
			if err != nil {
				panic(err)
			}
			p.Free(b, now)
		case r < 21:
			if len(live) == 0 {
				continue
			}
			j := rng.Intn(len(live))
			p.Free(live[j], now+sim.Time(rng.Intn(6)))
			live = append(live[:j], live[j+1:]...)
		default:
			now += sim.Time(rng.Intn(3))
			p.Flush(now)
		}
	}
	return tr
}

// binnedSpans counts the cached holes waiting in the pool's size bins.
func binnedSpans(p *Pool) int {
	n := 0
	for _, spans := range p.bins {
		n += len(spans)
	}
	return n
}

// replayStats counts what a reference replay exercised.
type replayStats struct{ binHits, binFlushes int }

// referenceFailure is what a reference replay saw at its failing call.
type referenceFailure struct {
	seq   int // the failing call's ordinal among the trace's Allocs
	err   *OOMError
	spans [][2]int64
}

// referenceFits replays tr call by call against a fresh pool of the given
// capacity, independently of Fits' bounds, and reports whether every call
// succeeds. When an Alloc fails and fail is non-nil, it records the call.
func referenceFits(tr *Trace, capacity int64, st *replayStats, fail *referenceFailure) bool {
	if capacity <= 0 {
		return false
	}
	p := New(capacity)
	blocks := make([]*Block, tr.blocks)
	seq := 0
	for _, o := range tr.ops {
		switch o.op {
		case traceAlloc:
			p.applyPending(o.t)
			n := p.roundUp(o.size)
			hit := o.kind == KindFeatureMap && n >= bigBlockThreshold && len(p.bins[n]) > 0
			before := binnedSpans(p)
			b, err := p.Alloc(o.t, o.size, o.kind, o.label)
			if err != nil {
				if fail != nil {
					*fail = referenceFailure{seq, err.(*OOMError), p.FreeSpans()}
				}
				return false
			}
			seq++
			if hit {
				st.binHits++
			} else if before > 0 && binnedSpans(p) == 0 {
				st.binFlushes++
			}
			blocks[o.ref] = b
		case traceFree:
			p.Free(blocks[o.ref], o.t)
		case traceFlush:
			p.Flush(o.t)
		}
	}
	return true
}

// TestTraceFitsBounds checks Fits against a reference replay over
// capacities around and between its two bounds: below peak every capacity
// fails, from fit up every capacity succeeds, and inside [peak, fit) Fits
// must agree with the replay — which, on these traces, goes both ways. At
// every positive capacity Fits rejects, below peak included, Failure must
// report the reference replay's failing call, error and free spans; at
// every other (no pool exists at a capacity ≤ 0) it must report none.
func TestTraceFitsBounds(t *testing.T) {
	var st replayStats
	var bandFail, bandFit int
	for seed := int64(1); seed <= 24; seed++ {
		tr := randomTrace(seed)
		tr.Fits(1) // computes the bounds
		peak, fit := tr.peak, tr.fit
		if peak <= 0 || fit < peak {
			t.Fatalf("seed %d: bounds peak=%d fit=%d", seed, peak, fit)
		}
		delta := (fit-peak)/4 + 4096
		caps := []int64{-1, 0, peak - 1, peak, fit - 1, fit, fit + 1}
		const steps = 64
		for i := int64(0); i <= steps; i++ {
			caps = append(caps, peak-delta+i*(fit-peak+2*delta)/steps)
		}
		for _, c := range caps {
			var ref referenceFailure
			got, want := tr.Fits(c), referenceFits(tr, c, &st, &ref)
			if got != want {
				t.Errorf("seed %d: Fits(%d) = %v, reference replay %v (peak %d, fit %d)", seed, c, got, want, peak, fit)
			}
			checkFailure(t, tr, c, got, ref)
			if c < peak && got {
				t.Errorf("seed %d: Fits(%d) below peak %d", seed, c, peak)
			}
			if c >= fit && !got {
				t.Errorf("seed %d: !Fits(%d) at or above fit %d", seed, c, fit)
			}
			if c >= peak && c < fit {
				if want {
					bandFit++
				} else {
					bandFail++
				}
			}
		}
	}
	if bandFail == 0 || bandFit == 0 {
		t.Errorf("band [peak, fit) tested one way only: %d fitting, %d failing capacities", bandFit, bandFail)
	}
	if st.binHits == 0 || st.binFlushes == 0 {
		t.Errorf("replays exercised %d bin hits and %d bin flushes; want both", st.binHits, st.binFlushes)
	}
	t.Logf("band: %d fitting, %d failing; bins: %d hits, %d flushes", bandFit, bandFail, st.binHits, st.binFlushes)
}

// checkFailure compares Failure at capacity c with the reference replay's
// failing call ref; fits is Fits' verdict at c.
func checkFailure(t *testing.T, tr *Trace, c int64, fits bool, ref referenceFailure) {
	t.Helper()
	seq, err, spans := tr.Failure(c)
	if fits || c <= 0 {
		if seq != -1 || err != nil || spans != nil {
			t.Errorf("Failure(%d) = %d, %v, %v; want no failing call", c, seq, err, spans)
		}
		return
	}
	if err == nil || ref.err == nil {
		t.Fatalf("Failure(%d) = %d, %v; reference failure %v", c, seq, err, ref.err)
	}
	if seq != ref.seq || *err != *ref.err || !reflect.DeepEqual(spans, ref.spans) {
		t.Errorf("Failure(%d) = call %d, %+v, %d spans; reference replay call %d, %+v, %d spans",
			c, seq, *err, len(spans), ref.seq, *ref.err, len(ref.spans))
	}
}

// TestTraceFitsConcurrent: sweep workers share one structure's trace, so
// the first Fits calls race to compute the bounds; every caller must see
// them and agree with the reference replay (run under -race).
func TestTraceFitsConcurrent(t *testing.T) {
	ref := randomTrace(7)
	ref.Fits(1)
	caps := []int64{ref.peak - 1, ref.peak, (ref.peak + ref.fit) / 2, ref.fit}
	want := make([]bool, len(caps))
	for i, c := range caps {
		want[i] = referenceFits(ref, c, &replayStats{}, nil)
	}
	tr := randomTrace(7)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, c := range caps {
				if got := tr.Fits(c); got != want[i] {
					t.Errorf("Fits(%d) = %v, want %v", c, got, want[i])
				}
			}
		}()
	}
	wg.Wait()
}

// TestTraceFitsEmpty: a trace without allocations fits every positive
// capacity and no other, and no call of it fails at any capacity.
func TestTraceFitsEmpty(t *testing.T) {
	tr := &Trace{}
	for _, c := range []int64{-1, 0, 1, 1 << 30} {
		got, want := tr.Fits(c), c > 0
		if got != want {
			t.Errorf("Fits(%d) = %v, want %v", c, got, want)
		}
		checkFailure(t, tr, c, got, referenceFailure{})
	}
}
