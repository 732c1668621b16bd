package figures

import (
	"bytes"
	"testing"

	"vdnn"
	"vdnn/internal/gpu"
	"vdnn/internal/sweep"
)

// TestParallelSuiteByteIdentical is the engine's acceptance criterion at the
// table level: every experiment rendered from a parallel suite must be
// byte-identical to the sequential reference.
func TestParallelSuiteByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full evaluation suite; skipped in -short mode")
	}
	seq := NewSuiteSim(gpu.TitanX(), vdnn.NewSimulator(vdnn.WithParallelism(1)))
	par := NewSuiteSim(gpu.TitanX(), vdnn.NewSimulator(vdnn.WithParallelism(8)))

	parExps := par.Experiments()
	for i, e := range seq.Experiments() {
		var want, got bytes.Buffer
		e.Gen().Render(&want)
		parExps[i].Gen().Render(&got)
		if want.String() != got.String() {
			t.Errorf("%s: parallel table differs from sequential:\n--- seq ---\n%s\n--- par ---\n%s",
				e.Name, want.String(), got.String())
		}
	}
}

// TestJobsCoverGen guards the job registry against drift: after priming an
// experiment's Jobs(), its Gen() must be all cache hits. A Gen that
// simulates a configuration its jobs function missed would silently fall
// back to inline sequential simulation, erasing the batch parallelism
// without failing any output check — this test turns that into a failure.
func TestJobsCoverGen(t *testing.T) {
	if testing.Short() {
		t.Skip("full evaluation suite; skipped in -short mode")
	}
	s := NewSuiteSim(gpu.TitanX(), vdnn.NewSimulator(vdnn.WithParallelism(4)))
	for _, e := range s.Experiments() {
		s.Prime(e.Jobs())
		before := s.Simulator().Stats().Simulations
		e.Gen()
		if after := s.Simulator().Stats().Simulations; after != before {
			t.Errorf("%s: Gen ran %d simulations its Jobs() did not enqueue", e.Name, after-before)
		}
	}
}

// TestExperimentsShareCache checks the suite-wide cache: regenerating every
// experiment on one suite must not re-simulate configurations that earlier
// experiments already ran (e.g. Figure 4 reuses Figure 1's simulations, the
// power study reuses Figure 11's).
func TestExperimentsShareCache(t *testing.T) {
	if testing.Short() {
		t.Skip("full evaluation suite; skipped in -short mode")
	}
	s := NewSuiteSim(gpu.TitanX(), vdnn.NewSimulator(vdnn.WithParallelism(4)))
	exps := s.Experiments()
	var enqueued int
	for _, e := range exps {
		enqueued += len(e.Jobs())
		e.Gen()
	}
	st := s.Simulator().Stats()
	if st.Simulations >= int64(enqueued) {
		t.Errorf("simulations = %d of %d enqueued jobs: experiments are not sharing the cache",
			st.Simulations, enqueued)
	}
	// The shared cache must actually be hit across the full evaluation — the
	// suite's whole reason for one simulator per run.
	if st.Hits == 0 {
		t.Errorf("cache hits = 0 after a full suite run (stats %+v)", st)
	}
	// Every experiment's wall clock is attributable.
	timings := s.Timings()
	if len(timings.Rows) != len(exps) {
		t.Errorf("timings table has %d rows, want one per experiment (%d)", len(timings.Rows), len(exps))
	}
	// Regenerating everything must be free.
	before := st.Simulations
	for _, e := range s.Experiments() {
		e.Gen()
	}
	if after := s.Simulator().Stats().Simulations; after != before {
		t.Errorf("regeneration ran %d extra simulations, want 0", after-before)
	}
}

// TestReproCounters pins what the differential path buys on the real
// evaluation: the vdnn-repro schedule at parallelism 1 — every experiment's
// Jobs() collected in Experiments() order and primed as one batch — costs
// exactly these top-level simulations, structure builds and priced points,
// and formatting every table afterwards simulates nothing. Simulations
// counts only top-level requests, so the numbers depend on batch order.
func TestReproCounters(t *testing.T) {
	if testing.Short() {
		t.Skip("full evaluation suite; skipped in -short mode")
	}
	s := NewSuiteSim(gpu.TitanX(), vdnn.NewSimulator(vdnn.WithParallelism(1)))
	exps := s.Experiments()
	var batch []sweep.Job
	for _, e := range exps {
		batch = append(batch, e.Jobs()...)
	}
	s.Prime(batch)
	st := s.Simulator().Stats()
	if st.Simulations != 234 || st.Structures != 158 || st.Priced != 49 {
		t.Errorf("primed evaluation: %d simulations (%d structures, %d priced), want 234 (158 structures, 49 priced)",
			st.Simulations, st.Structures, st.Priced)
	}
	for _, e := range exps {
		e.Gen()
	}
	if after := s.Simulator().Stats().Simulations; after != st.Simulations {
		t.Errorf("formatting every experiment ran %d simulations, want 0", after-st.Simulations)
	}
}
