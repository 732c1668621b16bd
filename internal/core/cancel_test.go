package core

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// stepCtx reports itself canceled after a fixed number of Err checks — a
// deterministic way to cancel exactly mid-simulation, independent of timing.
type stepCtx struct {
	context.Context
	remaining atomic.Int64
}

func newStepCtx(allow int64) *stepCtx {
	c := &stepCtx{Context: context.Background()}
	c.remaining.Store(allow)
	return c
}

func (c *stepCtx) Err() error {
	if c.remaining.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestRunContextPreCanceled checks an already-canceled context returns
// immediately with the sentinel, before any simulation work.
func TestRunContextPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := RunContext(ctx, alexNet, cfg(VDNNConv, MemOptimal))
	if res != nil {
		t.Fatalf("canceled run returned a result: %+v", res)
	}
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want to also match context.Canceled", err)
	}
}

// TestRunContextCancelMidRun cancels after a handful of per-layer checks in
// every grid shape — single-device, data-parallel, pipeline — and checks the
// run aborts with the sentinel instead of finishing or misreporting OOM.
func TestRunContextCancelMidRun(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"single", cfg(VDNNConv, MemOptimal)},
		{"data-parallel", Config{Spec: titan(), Policy: VDNNConv, Algo: MemOptimal, Devices: 2}},
		{"pipeline", Config{Spec: titan(), Policy: VDNNConv, Algo: MemOptimal, Stages: 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Let validation and a few layers pass, then cancel.
			ctx := newStepCtx(8)
			res, err := RunContext(ctx, alexNet, tc.cfg)
			if res != nil {
				t.Fatalf("canceled run returned a result: %+v", res)
			}
			if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want ErrCanceled wrapping context.Canceled", err)
			}
		})
	}
}

// TestRunContextCancelDuringProfiling checks the dynamic policy's profiler
// propagates cancellation instead of reading a canceled candidate as
// "untrainable".
func TestRunContextCancelDuringProfiling(t *testing.T) {
	ctx := newStepCtx(3)
	res, err := RunContext(ctx, vgg64, cfg(VDNNDyn, PerfOptimal))
	if res != nil {
		t.Fatalf("canceled profiling run returned a result: %+v", res)
	}
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

// TestRunContextDeadlineCause checks the wrapped cause distinguishes a
// deadline from a plain cancel — the serving layer's 408-vs-499 split.
func TestRunContextDeadlineCause(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := RunContext(ctx, alexNet, cfg(VDNNConv, MemOptimal))
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want ErrCanceled wrapping context.DeadlineExceeded", err)
	}
	if errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v matches context.Canceled; deadline cause lost", err)
	}
}

// TestCancelReturnsPromptly is the cancel-to-return bound: once cancel fires
// mid-simulation, RunContext must return within the cost of one layer's
// bookkeeping — milliseconds — not a full simulation. The deep VGG
// configuration simulates long enough (hundreds of layers × two iterations)
// that cancellation lands mid-run.
func TestCancelReturnsPromptly(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var canceledAt atomic.Int64
	go func() {
		time.Sleep(5 * time.Millisecond)
		canceledAt.Store(time.Now().UnixNano())
		cancel()
	}()
	// Many iterations of the deep network: a run long enough (hundreds of
	// ms) that the 5 ms cancel always lands mid-flight.
	longCfg := cfg(VDNNAll, MemOptimal)
	longCfg.Iterations = 100
	_, err := RunContext(ctx, vgg416Deep, longCfg)
	returned := time.Now().UnixNano()
	if err == nil {
		// The simulation beat the cancel — possible on a very fast machine;
		// the determinism of the bound is covered by the stepCtx tests.
		t.Skip("simulation finished before cancellation landed")
	}
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	at := canceledAt.Load()
	if at == 0 {
		t.Fatal("run failed before cancel fired")
	}
	if lag := time.Duration(returned - at); lag > time.Second {
		t.Fatalf("cancel-to-return took %s, want well under 1s", lag)
	}
}

// countCtx never cancels; it counts the Err probes a run makes — one at
// RunContext's entry and at least one per execution attempt.
type countCtx struct {
	context.Context
	probes atomic.Int64
}

func (c *countCtx) Err() error {
	c.probes.Add(1)
	return nil
}

// TestOracleFailureRunsOnce checks that a configuration already at oracle
// capacity is not executed a second time when it fails: a host too small to
// pin the first offloaded feature map fails at any device capacity, and the
// oracle request must stop after its one attempt with the error the rerun
// would have reported, while the same request at real capacity still pays
// its attempt plus the oracle rerun.
func TestOracleFailureRunsOnce(t *testing.T) {
	probes := func(oracle bool) (int64, error) {
		ctx := &countCtx{Context: context.Background()}
		c := Config{Spec: titan(), Policy: VDNNAll, Algo: MemOptimal, HostBytes: 1 << 20, Oracle: oracle}
		res, err := RunContext(ctx, alexNet, c)
		if res != nil {
			t.Fatalf("oracle=%v: a run whose host cannot pin fm0 returned a result: %+v", oracle, res)
		}
		return ctx.probes.Load(), err
	}
	oracleProbes, err := probes(true)
	const want = "core: oracle rerun failed: iteration 0: fwd conv1: "
	if err == nil || !strings.HasPrefix(err.Error(), want) || !strings.Contains(err.Error(), `"pin-fm0"`) {
		t.Fatalf("oracle err = %v, want prefix %q naming pin-fm0", err, want)
	}
	plainProbes, plainErr := probes(false)
	if plainErr == nil || plainErr.Error() != err.Error() {
		t.Fatalf("real-capacity err = %v, want the oracle request's %v", plainErr, err)
	}
	if oracleProbes >= plainProbes {
		t.Fatalf("oracle request probed its context %d times, real-capacity request %d: the failed oracle attempt was executed again",
			oracleProbes, plainProbes)
	}
}
