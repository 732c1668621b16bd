package plan_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"vdnn/internal/core"
	"vdnn/internal/dnn"
	"vdnn/internal/gpu"
	"vdnn/internal/networks"
	"vdnn/internal/pcie"
	"vdnn/internal/plan"
	"vdnn/internal/sweep"
)

// testEnv builds a planner environment over a fresh engine with a per-batch
// network memo, the way vdnn.Simulator wires it in production.
func testEnv(name string, workers int) plan.Env {
	eng := sweep.NewEngine(workers)
	nets := map[int]*dnn.Network{}
	return plan.Env{
		Net: func(batch int) (*dnn.Network, error) {
			if n, ok := nets[batch]; ok {
				return n, nil
			}
			n, err := networks.ByName(name, batch)
			if err == nil {
				nets[batch] = n
			}
			return n, err
		},
		Run: eng.RunAll,
	}
}

// exhaustive runs the full candidate space of a request and returns the
// argmin index under the planner's own rule — lowest step time, ties to the
// earliest candidate — or -1 when nothing trains. Candidates the simulator
// rejects are skipped, exactly as the planner records them invalid.
func exhaustive(t *testing.T, req plan.Request, env plan.Env) (int, []*core.Result) {
	t.Helper()
	req2 := req
	if req2.MaxDevices == 0 {
		req2.MaxDevices = plan.DefaultMaxDevices
	}
	cands := req2.Candidates()
	jobs := make([]sweep.Job, 0, len(cands))
	kept := make([]int, 0, len(cands))
	spec := req.Spec
	if spec == (gpu.Spec{}) {
		spec = gpu.TitanX()
	}
	if req.MemCapBytes > 0 {
		spec = spec.WithMemory(req.MemCapBytes)
	}
	for i, c := range cands {
		net, err := env.Net(c.PerDevBatch)
		if err != nil {
			continue
		}
		jobs = append(jobs, sweep.Job{Net: net, Cfg: c.Config(spec, pcie.SharedGen3Root())})
		kept = append(kept, i)
	}
	res, err := sweep.NewEngine(4).RunAll(context.Background(), jobs)
	if err != nil && !anyResult(res) {
		t.Fatalf("exhaustive sweep: %v", err)
	}
	byIdx := make([]*core.Result, len(cands))
	best := -1
	for j, i := range kept {
		if res[j] == nil {
			continue
		}
		byIdx[i] = res[j]
		if !res[j].Trainable {
			continue
		}
		if best < 0 || res[j].IterTime < byIdx[best].IterTime {
			best = i
		}
	}
	return best, byIdx
}

func anyResult(res []*core.Result) bool {
	for _, r := range res {
		if r != nil {
			return true
		}
	}
	return false
}

// TestSearchMatchesExhaustiveArgmin is the planner's optimality property:
// on spaces small enough to sweep, Search returns exactly the argmin an
// exhaustive RunAll over Request.Candidates would pick — across a loose cap
// (baseline dominates everywhere), tight caps (offload policies win), and
// an impossible cap (both sides agree on infeasible). Batch 8 admits no
// off-grid refinement shapes, so the planner's space is exactly the
// enumerated one.
func TestSearchMatchesExhaustiveArgmin(t *testing.T) {
	for _, tc := range []struct {
		name  string
		capMB int64
	}{
		{"loose-12GB", 0},
		{"tight-500MB", 500},
		{"tight-550MB", 550},
		{"infeasible-470MB", 470},
	} {
		t.Run(tc.name, func(t *testing.T) {
			req := plan.Request{Network: "alexnet", Batch: 8, MaxDevices: 4, MemCapBytes: tc.capMB << 20}
			env := testEnv("alexnet", 4)
			p, err := plan.Search(context.Background(), req, env)
			if p == nil {
				t.Fatalf("Search returned nil plan (err %v)", err)
			}
			if p.Counters.Refined != 0 {
				t.Fatalf("refinement fired on a space chosen to have no off-grid neighbors: %+v", p.Counters)
			}
			wantBest, results := exhaustive(t, req, env)

			if wantBest < 0 {
				if !errors.Is(err, plan.ErrInfeasible) {
					t.Fatalf("exhaustive sweep found nothing trainable, Search returned err=%v best=%+v", err, p.Best)
				}
				if p.Feasible || p.Best != nil {
					t.Fatalf("infeasible plan claims feasible=%v best=%+v", p.Feasible, p.Best)
				}
				return
			}
			if err != nil {
				t.Fatalf("Search: %v (exhaustive argmin exists: %d)", err, wantBest)
			}
			if p.Best == nil || p.Best.Index != wantBest {
				t.Fatalf("Search picked %+v, exhaustive argmin is candidate %d (%s %s %s, %.1fms)",
					p.Best, wantBest,
					req.Candidates()[wantBest].Mode(), req.Candidates()[wantBest].PolicyLabel(),
					req.Candidates()[wantBest].CodecLabel(),
					float64(results[wantBest].IterTime)/1e6)
			}
			if p.Result.IterTime != results[wantBest].IterTime {
				t.Fatalf("winner step time %v != exhaustive %v", p.Result.IterTime, results[wantBest].IterTime)
			}

			// Soundness of every prune: no pruned candidate may beat the
			// winner, and every "untrainable by monotonicity" prune must
			// actually be untrainable.
			for i, ev := range p.Evidence {
				if ev.Status != plan.StatusPruned || results[i] == nil {
					continue
				}
				if results[i].Trainable && results[i].IterTime < p.Result.IterTime {
					t.Errorf("pruned candidate %d (%s %s %s, reason %q) beats the winner: %.1fms < %.1fms",
						i, ev.Candidate.Mode(), ev.Candidate.PolicyLabel(), ev.Candidate.CodecLabel(), ev.Reason,
						float64(results[i].IterTime)/1e6, float64(p.Result.IterTime)/1e6)
				}
			}
		})
	}
}

// TestSearchNeverViolatesCap: any plan the search returns must be trainable
// under the capped spec, with the pool peak inside the cap.
func TestSearchNeverViolatesCap(t *testing.T) {
	for _, capMB := range []int64{500, 550, 600, 12 << 10} {
		req := plan.Request{Network: "alexnet", Batch: 8, MaxDevices: 4, MemCapBytes: capMB << 20}
		p, err := plan.Search(context.Background(), req, testEnv("alexnet", 4))
		if errors.Is(err, plan.ErrInfeasible) {
			continue
		}
		if err != nil {
			t.Fatalf("cap %dMB: %v", capMB, err)
		}
		if !p.Result.Trainable {
			t.Fatalf("cap %dMB: winner is untrainable: %s", capMB, p.Result.FailReason)
		}
		if p.Result.MaxUsage > capMB<<20 {
			t.Fatalf("cap %dMB: winner pool peak %d bytes exceeds the cap", capMB, p.Result.MaxUsage)
		}
		if p.Config.Spec.MemBytes != capMB<<20 {
			t.Fatalf("cap %dMB: winning config spec has %d bytes of memory", capMB, p.Config.Spec.MemBytes)
		}
	}
}

// TestSearchDeterministic: same request, same plan — winner, evidence table
// and counters all byte-for-byte equal across runs on fresh engines.
func TestSearchDeterministic(t *testing.T) {
	req := plan.Request{Network: "alexnet", Batch: 8, MaxDevices: 4, MemCapBytes: 550 << 20}
	a, errA := plan.Search(context.Background(), req, testEnv("alexnet", 4))
	b, errB := plan.Search(context.Background(), req, testEnv("alexnet", 1))
	if (errA == nil) != (errB == nil) {
		t.Fatalf("errors diverge: %v vs %v", errA, errB)
	}
	if a.Counters != b.Counters {
		t.Fatalf("counters diverge: %+v vs %+v", a.Counters, b.Counters)
	}
	if (a.Best == nil) != (b.Best == nil) {
		t.Fatalf("winners diverge: %+v vs %+v", a.Best, b.Best)
	}
	if a.Best != nil && *a.Best != *b.Best {
		t.Fatalf("winners diverge: %+v vs %+v", *a.Best, *b.Best)
	}
	if len(a.Evidence) != len(b.Evidence) {
		t.Fatalf("evidence length diverges: %d vs %d", len(a.Evidence), len(b.Evidence))
	}
	for i := range a.Evidence {
		ea, eb := a.Evidence[i], b.Evidence[i]
		if ea != eb {
			t.Fatalf("evidence row %d diverges:\n  %+v\n  %+v", i, ea, eb)
		}
	}
}

// TestSearchEvidenceCoversSpace: every candidate of the space appears in
// the evidence with a final status, and the counters add up.
func TestSearchEvidenceCoversSpace(t *testing.T) {
	req := plan.Request{Network: "alexnet", Batch: 8, MaxDevices: 4}
	p, err := plan.Search(context.Background(), req, testEnv("alexnet", 4))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Evidence) != p.Counters.Space+p.Counters.Refined {
		t.Fatalf("evidence rows %d != space %d + refined %d",
			len(p.Evidence), p.Counters.Space, p.Counters.Refined)
	}
	if got := p.Counters.Evaluated + p.Counters.Pruned + p.Counters.Invalid; got != len(p.Evidence) {
		t.Fatalf("counters sum %d != evidence rows %d (%+v)", got, len(p.Evidence), p.Counters)
	}
	for i, ev := range p.Evidence {
		if ev.Candidate.Index != i {
			t.Fatalf("evidence row %d carries candidate index %d", i, ev.Candidate.Index)
		}
		switch ev.Status {
		case plan.StatusEvaluated:
		case plan.StatusPruned, plan.StatusInvalid:
			if ev.Reason == "" {
				t.Fatalf("row %d is %s with no reason", i, ev.Status)
			}
		default:
			t.Fatalf("row %d has status %q", i, ev.Status)
		}
	}
}

// TestSearchRefinement: on a batch with non-power-of-two divisors the
// planner evaluates off-grid neighbors of the incumbent, and they only ever
// improve the result relative to the coarse space's argmin.
func TestSearchRefinement(t *testing.T) {
	req := plan.Request{Network: "alexnet", Batch: 24, MaxDevices: 4}
	env := testEnv("alexnet", 4)
	p, err := plan.Search(context.Background(), req, env)
	if err != nil {
		t.Fatal(err)
	}
	wantBest, results := exhaustive(t, req, env)
	if wantBest < 0 {
		t.Fatal("exhaustive sweep found nothing trainable")
	}
	if p.Result.IterTime > results[wantBest].IterTime {
		t.Fatalf("planner winner %.1fms is worse than the space argmin %.1fms",
			float64(p.Result.IterTime)/1e6, float64(results[wantBest].IterTime)/1e6)
	}
	if p.Best.Refined {
		if p.Result.IterTime >= results[wantBest].IterTime {
			t.Fatalf("refined winner must strictly beat the space argmin: %.1fms vs %.1fms",
				float64(p.Result.IterTime)/1e6, float64(results[wantBest].IterTime)/1e6)
		}
	} else if p.Best.Index != wantBest {
		t.Fatalf("unrefined winner %d != space argmin %d", p.Best.Index, wantBest)
	}
	for _, ev := range p.Evidence {
		if ev.Candidate.Refined && ev.Status == plan.StatusEvaluated && p.Counters.Refined == 0 {
			t.Fatalf("refined evidence row without a refined counter: %+v", ev)
		}
	}
}

// TestSearchCancel: canceling the context mid-search aborts promptly with
// ErrCanceled and leaks no goroutines.
func TestSearchCancel(t *testing.T) {
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	env := testEnv("vgg16", 2)
	inner := env.Run
	calls := 0
	env.Run = func(ctx context.Context, jobs []sweep.Job) ([]*core.Result, error) {
		calls++
		if calls == 2 {
			cancel()
		}
		return inner(ctx, jobs)
	}
	req := plan.Request{Network: "vgg16", Batch: 64, MaxDevices: 2}
	start := time.Now()
	p, err := plan.Search(ctx, req, env)
	if err == nil || !errors.Is(err, core.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if p != nil {
		t.Fatalf("canceled search still returned a plan: %+v", p.Counters)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
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
		time.Sleep(20 * time.Millisecond)
	}
}

// TestRequestValidation: malformed requests fail fast, before any
// simulation.
func TestRequestValidation(t *testing.T) {
	env := testEnv("alexnet", 1)
	for _, req := range []plan.Request{
		{Network: "", Batch: 8},
		{Network: "alexnet", Batch: 0},
		{Network: "alexnet", Batch: 8, MaxDevices: plan.MaxBudget + 1},
		{Network: "alexnet", Batch: 8, MemCapBytes: -1},
	} {
		if _, err := plan.Search(context.Background(), req, env); err == nil {
			t.Errorf("request %+v validated", req)
		}
	}
	if _, err := plan.Search(context.Background(), plan.Request{Network: "alexnet", Batch: 8}, plan.Env{}); err == nil {
		t.Error("empty environment validated")
	}
}

// TestCrossRowMajor: the shared sweep enumerator walks the cartesian
// product with the first axis slowest, matching table row/column indexing.
func TestCrossRowMajor(t *testing.T) {
	// Abuse the free-form StageCuts string as a trace of the applied
	// variants.
	tag := func(k, v string) plan.Variant {
		return plan.Variant{Label: v, Apply: func(c core.Config) core.Config {
			c.StageCuts += k + "=" + v + ";"
			return c
		}}
	}
	cfgs := plan.Cross(core.Config{},
		plan.Axis{tag("a", "0"), tag("a", "1")},
		plan.Axis{tag("b", "0"), tag("b", "1"), tag("b", "2")})
	if len(cfgs) != 6 {
		t.Fatalf("Cross produced %d configs, want 6", len(cfgs))
	}
	want := []string{"a=0;b=0;", "a=0;b=1;", "a=0;b=2;", "a=1;b=0;", "a=1;b=1;", "a=1;b=2;"}
	for i, cfg := range cfgs {
		if cfg.StageCuts != want[i] {
			t.Errorf("cfg[%d] = %q, want %q", i, cfg.StageCuts, want[i])
		}
	}

	// CrossJobs is network-major over the same product: one contiguous
	// run of the configurations per network.
	nets := []*dnn.Network{networks.AlexNet(8), networks.AlexNet(16)}
	jobs := plan.CrossJobs(nets, core.Config{},
		plan.Axis{tag("a", "0"), tag("a", "1")},
		plan.Axis{tag("b", "0"), tag("b", "1"), tag("b", "2")})
	if len(jobs) != len(nets)*len(want) {
		t.Fatalf("CrossJobs produced %d jobs, want %d", len(jobs), len(nets)*len(want))
	}
	for i, j := range jobs {
		if j.Net != nets[i/len(want)] || j.Cfg.StageCuts != want[i%len(want)] {
			t.Errorf("job[%d] = %s %q, want %s %q", i, j.Net.Name, j.Cfg.StageCuts, nets[i/len(want)].Name, want[i%len(want)])
		}
	}
}

// TestCandidatesDeterministic: the space enumeration is stable and densely
// indexed.
func TestCandidatesDeterministic(t *testing.T) {
	req := plan.Request{Network: "vgg16", Batch: 256, MaxDevices: 4, MemCapBytes: 16 << 30}
	a, b := req.Candidates(), req.Candidates()
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("enumeration lengths: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("candidate %d diverges: %+v vs %+v", i, a[i], b[i])
		}
		if a[i].Index != i {
			t.Fatalf("candidate %d carries index %d", i, a[i].Index)
		}
	}
}

func ExampleRequest_Candidates() {
	req := plan.Request{Network: "alexnet", Batch: 8, MaxDevices: 2}
	cands := req.Candidates()
	fmt.Println(len(cands), "candidates;", cands[0].Mode(), cands[0].PolicyLabel(), cands[0].CodecLabel())
	// Output: 64 candidates; single base(p) none
}
