package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func op(label string, d Time) *Op {
	return &Op{Label: label, Kind: OpKernel, DurationT: d}
}

func TestSingleStreamFIFO(t *testing.T) {
	tl := New(0, 0)
	eng := tl.NewEngine("compute")
	s := tl.NewStream("compute")

	a := tl.Issue(op("a", 10), s, eng)
	b := tl.Issue(op("b", 20), s, eng)
	c := tl.Issue(op("c", 5), s, eng)

	if a.Start != 0 || a.End != 10 {
		t.Fatalf("a scheduled [%v,%v], want [0,10]", a.Start, a.End)
	}
	if b.Start != 10 || b.End != 30 {
		t.Fatalf("b scheduled [%v,%v], want [10,30]", b.Start, b.End)
	}
	if c.Start != 30 || c.End != 35 {
		t.Fatalf("c scheduled [%v,%v], want [30,35]", c.Start, c.End)
	}
	if err := tl.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTwoStreamsOverlap(t *testing.T) {
	// The Fig-9 scenario: compute kernels on one engine overlap DMA on another.
	tl := New(0, 0)
	sm := tl.NewEngine("compute")
	dma := tl.NewEngine("copyD2H")
	sc := tl.NewStream("stream_compute")
	sm2 := tl.NewStream("stream_memory")

	fwd1 := tl.Issue(op("FWD(1)", 100), sc, sm)
	off1 := tl.Issue(&Op{Label: "OFF(1)", Kind: OpCopyD2H, DurationT: 80}, sm2, dma)

	if off1.Start != 0 {
		t.Fatalf("OFF(1) should start immediately, started %v", off1.Start)
	}
	if off1.End >= fwd1.End {
		t.Fatalf("offload should hide inside compute: off end %v, fwd end %v", off1.End, fwd1.End)
	}
	// vDNN end-of-layer sync: host waits for both.
	tl.Wait(fwd1)
	tl.Wait(off1)
	if tl.Now() != 100 {
		t.Fatalf("host should be at 100 after sync, got %v", tl.Now())
	}
	// Next layer's compute starts only after the sync point.
	fwd2 := tl.Issue(op("FWD(2)", 50), sc, sm)
	if fwd2.Start != 100 {
		t.Fatalf("FWD(2) start %v, want 100", fwd2.Start)
	}
}

func TestOffloadStall(t *testing.T) {
	// When the offload is longer than the kernel, the next layer is delayed
	// until the offload drains ("wasted time" in paper Fig 9).
	tl := New(0, 0)
	smEng := tl.NewEngine("compute")
	dmaEng := tl.NewEngine("copyD2H")
	sc := tl.NewStream("stream_compute")
	smem := tl.NewStream("stream_memory")

	fwd := tl.Issue(op("FWD(1)", 30), sc, smEng)
	off := tl.Issue(&Op{Label: "OFF(1)", Kind: OpCopyD2H, DurationT: 90}, smem, dmaEng)
	tl.Wait(fwd)
	tl.Wait(off)
	fwd2 := tl.Issue(op("FWD(2)", 30), sc, smEng)
	if fwd2.Start != 90 {
		t.Fatalf("FWD(2) should stall until offload ends at 90, started %v", fwd2.Start)
	}
}

func TestCrossStreamEventDependency(t *testing.T) {
	tl := New(0, 0)
	sm := tl.NewEngine("compute")
	dma := tl.NewEngine("copyH2D")
	sc := tl.NewStream("stream_compute")
	smem := tl.NewStream("stream_memory")

	pre := tl.Issue(&Op{Label: "PRE(1)", Kind: OpCopyH2D, DurationT: 40}, smem, dma)
	// BWD(1) consumes the prefetched data: explicit dependency.
	bwd := tl.Issue(op("BWD(1)", 10), sc, sm, pre)
	if bwd.Start != 40 {
		t.Fatalf("BWD(1) must wait for prefetch, started %v", bwd.Start)
	}
	if err := tl.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestHostIssueTimeLowerBound(t *testing.T) {
	// An op can never start before the host has issued it.
	tl := New(0, 0)
	sm := tl.NewEngine("compute")
	sc := tl.NewStream("c")
	tl.AdvanceHost(25)
	a := tl.Issue(op("a", 5), sc, sm)
	if a.Start != 25 {
		t.Fatalf("op issued at host time 25 started at %v", a.Start)
	}
}

func TestLaunchAndSyncOverheads(t *testing.T) {
	tl := New(2, 7)
	sm := tl.NewEngine("compute")
	sc := tl.NewStream("c")
	a := tl.Issue(op("a", 100), sc, sm)
	if tl.Now() != 2 {
		t.Fatalf("host should advance by launch overhead, now %v", tl.Now())
	}
	b := tl.Issue(op("b", 10), sc, sm)
	if b.Start != a.End {
		t.Fatalf("b start %v, want %v", b.Start, a.End)
	}
	tl.Wait(b)
	if tl.Now() != b.End+7 {
		t.Fatalf("host after sync = %v, want %v", tl.Now(), b.End+7)
	}
	// Waiting on an already-finished op only charges sync overhead.
	before := tl.Now()
	tl.Wait(a)
	if tl.Now() != before+7 {
		t.Fatalf("re-wait charged %v, want %v", tl.Now()-before, Time(7))
	}
}

func TestWaitNilIsNoop(t *testing.T) {
	tl := New(0, 5)
	tl.Wait(nil)
	if tl.Now() != 0 {
		t.Fatalf("Wait(nil) advanced host to %v", tl.Now())
	}
	s := tl.NewStream("empty")
	tl.WaitStream(s)
	if tl.Now() != 0 {
		t.Fatalf("WaitStream(empty) advanced host to %v", tl.Now())
	}
}

func TestEngineSerializesAcrossStreams(t *testing.T) {
	// Two streams, one engine: ops must not overlap on the engine.
	tl := New(0, 0)
	e := tl.NewEngine("compute")
	s1 := tl.NewStream("s1")
	s2 := tl.NewStream("s2")
	a := tl.Issue(op("a", 50), s1, e)
	b := tl.Issue(op("b", 50), s2, e)
	if b.Start < a.End {
		t.Fatalf("engine overlapped: b starts %v before a ends %v", b.Start, a.End)
	}
	if err := tl.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSpanAndBusyTime(t *testing.T) {
	tl := New(0, 0)
	e := tl.NewEngine("compute")
	s := tl.NewStream("s")
	tl.Issue(op("a", 10), s, e)
	tl.Issue(op("b", 15), s, e)
	start, end := tl.Span()
	if start != 0 || end != 25 {
		t.Fatalf("span [%v,%v], want [0,25]", start, end)
	}
	ops := e.Ops()
	if len(ops) != 2 || ops[0].Start != 0 || ops[1].Start != 10 {
		t.Fatalf("engine ops not back to back in issue order: %+v", ops)
	}
	if busy := ops[0].DurationT + ops[1].DurationT; busy != 25 {
		t.Fatalf("busy %v, want 25", busy)
	}
}

func TestEmptySpan(t *testing.T) {
	tl := New(0, 0)
	s, e := tl.Span()
	if s != 0 || e != 0 {
		t.Fatalf("empty span [%v,%v]", s, e)
	}
}

func TestNegativeDurationPanics(t *testing.T) {
	tl := New(0, 0)
	e := tl.NewEngine("x")
	s := tl.NewStream("s")
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on negative duration")
		}
	}()
	tl.Issue(op("bad", -1), s, e)
}

// Property: for random DAGs of ops across streams/engines, Validate always
// passes and every op respects stream FIFO order.
func TestRandomScheduleInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tl := New(Time(rng.Intn(3)), Time(rng.Intn(3)))
		engines := []*Engine{tl.NewEngine("e0"), tl.NewEngine("e1"), tl.NewEngine("e2")}
		streams := []*Stream{tl.NewStream("s0"), tl.NewStream("s1"), tl.NewStream("s2")}
		var all []*Op
		for i := 0; i < 120; i++ {
			var deps []*Op
			if len(all) > 0 && rng.Intn(2) == 0 {
				deps = append(deps, all[rng.Intn(len(all))])
			}
			o := tl.Issue(op("op", Time(rng.Intn(50))), streams[rng.Intn(3)], engines[rng.Intn(3)], deps...)
			all = append(all, o)
			if rng.Intn(8) == 0 {
				tl.Wait(all[rng.Intn(len(all))])
			}
		}
		if err := tl.Validate(); err != nil {
			t.Logf("validate: %v", err)
			return false
		}
		// Host never travels backward and ends no earlier than 0.
		return tl.Now() >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeFormatting(t *testing.T) {
	if (1500 * Microsecond).Msec() != 1.5 {
		t.Fatalf("Msec wrong: %v", (1500 * Microsecond).Msec())
	}
	if (2 * Second).Seconds() != 2.0 {
		t.Fatalf("Seconds wrong: %v", (2 * Second).Seconds())
	}
	if OpCopyD2H.String() != "copyD2H" || OpKernel.String() != "kernel" || OpCopyH2D.String() != "copyH2D" || OpHost.String() != "host" {
		t.Fatal("OpKind names wrong")
	}
}
