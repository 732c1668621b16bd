package sweep

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vdnn/internal/core"
	"vdnn/internal/dnn"
	"vdnn/internal/gpu"
	"vdnn/internal/networks"
)

// spinPolicy is a profiling policy that keeps simulating sub-candidates
// until its context is canceled (each candidate checks the run context on
// entry) or stop is set. It makes "a simulation that is deterministically
// mid-flight when cancel lands" out of fast deterministic sub-simulations.
type spinPolicy struct {
	namedPolicy
	started chan struct{} // closed when the simulation is running
	once    sync.Once
	stop    atomic.Bool
	// fresh, when nonzero, gives every candidate its own cache key (host
	// DRAM offset by fresh and the candidate index), so the policy always
	// has a nested computation in flight instead of looping on cache hits.
	fresh int64
}

func (p *spinPolicy) Profile(net *dnn.Network, cfg core.Config, simulate core.Simulate) (*core.Result, error) {
	p.once.Do(func() { close(p.started) })
	sub := cfg
	sub.Custom = nil
	sub.Policy = core.Baseline
	sub.Algo = core.MemOptimal
	var last *core.Result
	for i := 1; ; i++ {
		if p.stop.Load() {
			return last, nil
		}
		s := sub
		s.Iterations = 1 + i%3
		if p.fresh > 0 {
			s.HostBytes = 64<<30 + p.fresh<<20 + int64(i)
		}
		res, err := simulate(s)
		if err != nil {
			return nil, err
		}
		last = res
	}
}

// TestRunCancelMidFlight cancels the only caller of an in-flight simulation:
// Run must return promptly with an error matching both core.ErrCanceled and
// context.Canceled, the abort must be counted, and the canceled result must
// not be cached — a fresh request re-simulates and succeeds.
func TestRunCancelMidFlight(t *testing.T) {
	eng := NewEngine(2)
	net := networks.AlexNet(32)
	pol := &spinPolicy{namedPolicy: namedPolicy{name: "spin"}, started: make(chan struct{})}
	cfg := core.Config{Spec: gpu.TitanX(), Custom: pol}

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := eng.Run(ctx, net, cfg)
		errc <- err
	}()
	<-pol.started
	cancel()
	var err error
	select {
	case err = <-errc:
	case <-time.After(10 * time.Second):
		t.Fatal("canceled Run did not return")
	}
	if !errors.Is(err, core.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want core.ErrCanceled wrapping context.Canceled", err)
	}
	if st := eng.Stats(); st.Canceled != 1 {
		t.Errorf("Canceled stat = %d, want 1 (stats %+v)", st.Canceled, st)
	}

	// The canceled entry must not poison the key: a live caller re-simulates.
	pol.stop.Store(true)
	if _, err := eng.Run(context.Background(), net, cfg); err != nil {
		t.Fatalf("re-run after cancel: %v", err)
	}
	if st := eng.Stats(); st.Simulations != 2 {
		t.Errorf("simulations = %d, want 2 (canceled run must not be cached)", st.Simulations)
	}
}

// TestCanceledCountsTopLevelAborts puts K distinct spin-policy keys in
// flight at once, cancels a seeded subset of them and lets the rest finish.
// Every spinning request keeps a nested profiling candidate in flight, yet
// Stats.Canceled must equal the canceled subset's size: one per abandoned
// top-level request.
func TestCanceledCountsTopLevelAborts(t *testing.T) {
	const k = 5
	net := networks.AlexNet(32)
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		eng := NewEngine(k) // a worker slot per request: all in flight at once
		pols := make([]*spinPolicy, k)
		cancels := make([]context.CancelFunc, k)
		errcs := make([]chan error, k)
		for i := range pols {
			pols[i] = &spinPolicy{namedPolicy: namedPolicy{name: fmt.Sprintf("spin-%d-%d", seed, i)},
				started: make(chan struct{}), fresh: int64(i + 1)}
			ctx, cancel := context.WithCancel(context.Background())
			cancels[i], errcs[i] = cancel, make(chan error, 1)
			cfg := core.Config{Spec: gpu.TitanX(), Custom: pols[i]}
			go func(errc chan<- error) {
				_, err := eng.Run(ctx, net, cfg)
				errc <- err
			}(errcs[i])
		}
		for _, p := range pols {
			<-p.started
		}

		subset := rng.Perm(k)[:rng.Intn(k+1)]
		canceled := make([]bool, k)
		for _, i := range subset {
			canceled[i] = true
			cancels[i]()
		}
		for i, p := range pols {
			if !canceled[i] {
				p.stop.Store(true)
			}
		}
		for i, errc := range errcs {
			select {
			case err := <-errc:
				if canceled[i] && !errors.Is(err, core.ErrCanceled) {
					t.Fatalf("seed %d: canceled request %d: err = %v, want core.ErrCanceled", seed, i, err)
				}
				if !canceled[i] && err != nil {
					t.Fatalf("seed %d: surviving request %d: %v", seed, i, err)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("seed %d: request %d never returned", seed, i)
			}
			cancels[i]()
		}
		if st := eng.Stats(); st.Canceled != int64(len(subset)) {
			t.Errorf("seed %d: Canceled = %d, want %d (the canceled subset %v; stats %+v)",
				seed, st.Canceled, len(subset), subset, st)
		}
	}
}

// TestWaiterCancelKeepsSharedRun checks reference counting: when two callers
// share one in-flight simulation and only one cancels, the canceling caller
// returns immediately with its context error while the simulation keeps
// running for the survivor and completes normally.
func TestWaiterCancelKeepsSharedRun(t *testing.T) {
	eng := NewEngine(2)
	net := networks.AlexNet(32)
	pol := &spinPolicy{namedPolicy: namedPolicy{name: "shared"}, started: make(chan struct{})}
	cfg := core.Config{Spec: gpu.TitanX(), Custom: pol}

	initErr := make(chan error, 1)
	go func() {
		_, err := eng.Run(context.Background(), net, cfg)
		initErr <- err
	}()
	<-pol.started

	// Coalesce a second caller onto the in-flight entry, then cancel it.
	waitCtx, cancelWaiter := context.WithCancel(context.Background())
	waitErr := make(chan error, 1)
	go func() {
		_, err := eng.Run(waitCtx, net, cfg)
		waitErr <- err
	}()
	// The waiter must be parked on the entry before we cancel, or it would
	// just fail its entry check; Coalesced flipping to 1 is that signal.
	deadline := time.Now().Add(5 * time.Second)
	for eng.Stats().Coalesced == 0 {
		if time.Now().After(deadline) {
			t.Fatal("second caller never coalesced")
		}
		time.Sleep(time.Millisecond)
	}
	cancelWaiter()
	select {
	case err := <-waitErr:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("waiter err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("canceled waiter did not return")
	}

	// The initiator's run must survive the waiter's departure.
	pol.stop.Store(true)
	select {
	case err := <-initErr:
		if err != nil {
			t.Fatalf("surviving caller failed: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("surviving caller never completed")
	}
	if st := eng.Stats(); st.Canceled != 0 {
		t.Errorf("Canceled stat = %d, want 0 (simulation had a surviving waiter)", st.Canceled)
	}
}

// TestRunAllCancelMidBatch cancels a batch while its first job is mid-
// simulation: RunAll must return promptly with an error naming a job index
// and matching the context error, and jobs never dispatched must not have
// been simulated.
func TestRunAllCancelMidBatch(t *testing.T) {
	// One worker: while the spin job holds it, jobs 1..15 are provably
	// undispatched at cancel time. (With more workers the others could drain
	// the whole queue before cancel lands — differential pricing makes the
	// non-spinning jobs nearly free.)
	eng := NewEngine(1)
	net := networks.AlexNet(32)
	pol := &spinPolicy{namedPolicy: namedPolicy{name: "batch-spin"}, started: make(chan struct{})}
	jobs := make([]Job, 16)
	jobs[0] = Job{Net: net, Cfg: core.Config{Spec: gpu.TitanX(), Custom: pol}}
	for i := 1; i < len(jobs); i++ {
		jobs[i] = Job{Net: net, Cfg: core.Config{Spec: gpu.TitanX(), Policy: core.VDNNConv, Iterations: i}}
	}

	ctx, cancel := context.WithCancel(context.Background())
	type out struct {
		results []*core.Result
		err     error
	}
	done := make(chan out, 1)
	go func() {
		res, err := eng.RunAll(ctx, jobs)
		done <- out{res, err}
	}()
	<-pol.started
	cancel()
	var got out
	select {
	case got = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("canceled RunAll did not return")
	}
	if got.err == nil {
		t.Fatal("canceled RunAll returned nil error")
	}
	if !errors.Is(got.err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled in the chain", got.err)
	}
	if !strings.Contains(got.err.Error(), "job ") {
		t.Errorf("batch error %q does not identify the failing job", got.err)
	}
	if st := eng.Stats(); st.Simulations >= int64(len(jobs)) {
		t.Errorf("simulations = %d: cancellation did not stop dispatch of %d jobs", st.Simulations, len(jobs))
	}
}

// TestRunAllUndispatchedJobsCarryIndex checks the pre-canceled path: every
// abandoned job's error carries its index, not a bare context error.
func TestRunAllUndispatchedJobsCarryIndex(t *testing.T) {
	eng := NewEngine(4)
	net := networks.AlexNet(32)
	jobs := make([]Job, 6)
	for i := range jobs {
		jobs[i] = Job{Net: net, Cfg: core.Config{Spec: gpu.TitanX(), Policy: core.VDNNConv, Iterations: i + 1}}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := eng.RunAll(ctx, jobs)
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !strings.Contains(err.Error(), "job 0") {
		t.Errorf("error %q does not name the job index", err)
	}
}

// TestCancelLeaksNoGoroutines runs a burst of canceled and completed
// simulations and checks the engine's goroutine count settles back to the
// baseline — no watcher, waiter or worker leaks.
func TestCancelLeaksNoGoroutines(t *testing.T) {
	eng := NewEngine(4)
	net := networks.AlexNet(32)
	before := runtime.NumGoroutine()

	for round := 0; round < 8; round++ {
		pol := &spinPolicy{namedPolicy: namedPolicy{name: fmt.Sprintf("leak-%d", round)}, started: make(chan struct{})}
		cfg := core.Config{Spec: gpu.TitanX(), Custom: pol}
		ctx, cancel := context.WithCancel(context.Background())
		errc := make(chan error, 1)
		go func() {
			_, err := eng.Run(ctx, net, cfg)
			errc <- err
		}()
		<-pol.started
		cancel()
		if err := <-errc; !errors.Is(err, core.ErrCanceled) {
			t.Fatalf("round %d: err = %v, want core.ErrCanceled", round, err)
		}
		// And one normal completed run in between, to mix paths.
		if _, err := eng.Run(context.Background(), net, core.Config{Spec: gpu.TitanX(), Policy: core.VDNNConv, Iterations: round + 1}); err != nil {
			t.Fatal(err)
		}
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines before %d, after %d:\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
