package sweep

import (
	"context"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"vdnn/internal/compress"
	"vdnn/internal/core"
	"vdnn/internal/dnn"
	"vdnn/internal/gpu"
	"vdnn/internal/networks"
)

// capacitySweepJobs is a capacity ablation crossed with the policy/algorithm
// grid — the shape of every figure sweep, and the differential path's best
// case: each (policy, algo) column shares one structure across all
// capacities. The grid deliberately includes ineligible shapes (vDNN-dyn,
// greedy algorithm selection) and capacities on both sides of the
// trainability threshold, so full-path fallback and the untrainable pricing
// path are exercised alongside the happy path.
func capacitySweepJobs(t testing.TB) []Job {
	t.Helper()
	net := networks.AlexNet(128)
	var jobs []Job
	for _, memGB := range []int64{1, 2, 4, 6, 8, 12} {
		spec := gpu.TitanX().WithMemory(memGB << 30)
		for _, pa := range []struct {
			p core.Policy
			a core.AlgoMode
		}{
			{core.Baseline, core.MemOptimal},
			{core.Baseline, core.PerfOptimal},
			{core.VDNNAll, core.MemOptimal},
			{core.VDNNConv, core.PerfOptimal},
			{core.VDNNAll, core.GreedyAlgo}, // ineligible: consults free space
			{core.VDNNDyn, 0},               // ineligible: profiling cascade
		} {
			jobs = append(jobs, Job{Net: net, Cfg: core.Config{Spec: spec, Policy: pa.p, Algo: pa.a}})
		}
		// Oracle points share the same structures as their real twins.
		jobs = append(jobs, Job{Net: net, Cfg: core.Config{Spec: spec, Policy: core.VDNNAll, Algo: core.MemOptimal, Oracle: true}})
	}
	return jobs
}

// TestDifferentialEquivalence is the tentpole guarantee: every result the
// engine produces through the structure/pricing split is reflect.DeepEqual
// to a plain core.Run of the same job — trainable points, untrainable points
// (exact FailReason chain), oracle points, and ineligible shapes alike.
func TestDifferentialEquivalence(t *testing.T) {
	jobs := capacitySweepJobs(t)

	want := make([]*core.Result, len(jobs))
	for i, j := range jobs {
		r, err := core.Run(j.Net, j.Cfg)
		if err != nil {
			t.Fatalf("sequential job %d: %v", i, err)
		}
		want[i] = r
	}

	eng := NewEngine(4)
	got, err := eng.RunAll(context.Background(), jobs)
	if err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	var trainable, untrainable int
	for i := range jobs {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("job %d (%v %v, %d GB): differential result differs from full simulation",
				i, jobs[i].Cfg.Policy, jobs[i].Cfg.Algo, jobs[i].Cfg.Spec.MemBytes>>30)
		}
		if got[i].Trainable {
			trainable++
		} else {
			untrainable++
		}
	}
	if trainable == 0 || untrainable == 0 {
		t.Fatalf("sweep did not cross the trainability threshold (trainable=%d untrainable=%d): the untrainable pricing path went untested", trainable, untrainable)
	}

	st := eng.Stats()
	if st.Priced == 0 {
		t.Fatalf("no result was priced from a structure (stats %+v)", st)
	}
	if st.Structures == 0 {
		t.Fatalf("no structure was built (stats %+v)", st)
	}
	// Structure sharing is the point: each eligible (policy, algo) column
	// must reuse one structure across all six capacities, not build one per
	// point.
	if st.Structures >= st.Priced {
		t.Errorf("structures (%d) >= priced results (%d): capacities are not sharing structures (stats %+v)",
			st.Structures, st.Priced, st)
	}
}

// TestDifferentialUntrainableExact pins the hardest equivalence case: an
// untrainable point priced from a structure must reproduce the full path's
// failure verbatim — Trainable, FailReason, the oracle demand report, and
// the Debug free-span dump.
func TestDifferentialUntrainableExact(t *testing.T) {
	net := networks.AlexNet(128)
	cfg := core.Config{
		Spec:   gpu.TitanX().WithMemory(1 << 30),
		Policy: core.Baseline,
		Algo:   core.PerfOptimal,
		Debug:  true,
	}
	want, err := core.Run(net, cfg)
	if err != nil {
		t.Fatalf("core.Run: %v", err)
	}
	if want.Trainable {
		t.Fatalf("baseline AlexNet(128) trains in 1 GB; pick a smaller capacity")
	}
	eng := NewEngine(1)
	got, err := eng.Run(context.Background(), net, cfg)
	if err != nil {
		t.Fatalf("engine Run: %v", err)
	}
	if got.FailReason != want.FailReason {
		t.Errorf("FailReason:\n  engine: %q\n  core:   %q", got.FailReason, want.FailReason)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("priced untrainable result differs from full simulation")
	}
	if st := eng.Stats(); st.Structures != 1 {
		t.Errorf("structures = %d, want 1 (stats %+v)", st.Structures, st)
	}
}

// TestDifferentialStructureStats checks the bookkeeping of the differential
// split on a clean capacity column: the first capacity doubles as the
// structure build (it simulates at its own capacity, recording the trace),
// every later capacity is priced from it, and a repeat request is a plain
// cache hit that builds and prices nothing new.
func TestDifferentialStructureStats(t *testing.T) {
	net := networks.AlexNet(128)
	eng := NewEngine(1)
	ctx := context.Background()
	caps := []int64{2 << 30, 4 << 30, 8 << 30, 12 << 30}
	for _, c := range caps {
		cfg := core.Config{Spec: gpu.TitanX().WithMemory(c), Policy: core.VDNNConv, Algo: core.PerfOptimal}
		if _, err := eng.Run(ctx, net, cfg); err != nil {
			t.Fatal(err)
		}
	}
	st := eng.Stats()
	if st.Structures != 1 {
		t.Errorf("structures = %d, want 1 shared across %d capacities (stats %+v)", st.Structures, len(caps), st)
	}
	if st.Priced != int64(len(caps)-1) {
		t.Errorf("priced = %d, want %d — every capacity after the structure-building first (stats %+v)", st.Priced, len(caps)-1, st)
	}
	if st.Simulations != int64(len(caps)) {
		t.Errorf("simulations = %d, want %d top-level computations (stats %+v)", st.Simulations, len(caps), st)
	}
	// Repeat: pure hits, nothing recomputed.
	for _, c := range caps {
		cfg := core.Config{Spec: gpu.TitanX().WithMemory(c), Policy: core.VDNNConv, Algo: core.PerfOptimal}
		if _, err := eng.Run(ctx, net, cfg); err != nil {
			t.Fatal(err)
		}
	}
	if st2 := eng.Stats(); st2.Structures != st.Structures || st2.Priced != st.Priced || st2.Simulations != st.Simulations {
		t.Errorf("repeat requests recomputed work: before %+v after %+v", st, st2)
	}
}

// TestShardedCacheStress hammers the sharded cache from concurrent RunAll
// batches over overlapping keys (run under -race in CI): every batch must
// return results identical to the sequential reference, and the singleflight
// guarantee must hold engine-wide — each unique key is computed exactly
// once, each unique structure built exactly once, no matter how many batches
// race for it.
func TestShardedCacheStress(t *testing.T) {
	// Exclude vDNN-dyn: its profiling candidates resolve nested and race
	// top-level requests for the same keys, so whether a key counts as a
	// Simulation or a Hit becomes scheduling-dependent. Dyn correctness under
	// the engine is covered by TestDifferentialEquivalence; this test pins
	// the exact singleflight arithmetic on the statically-keyed grid.
	var jobs []Job
	for _, j := range capacitySweepJobs(t) {
		if j.Cfg.Policy != core.VDNNDyn {
			jobs = append(jobs, j)
		}
	}

	// Sequential reference on a private engine.
	ref := NewEngine(1)
	want, err := ref.RunAll(context.Background(), jobs)
	if err != nil {
		t.Fatalf("reference RunAll: %v", err)
	}

	uniqueKeys := map[key]bool{}
	uniqueStructures := map[key]bool{}
	for _, j := range jobs {
		k := keyOf(j.Net, j.Cfg)
		uniqueKeys[k] = true
		if core.StructureShaped(k.cfg) {
			uniqueStructures[structureKey(k)] = true
		}
	}

	eng := NewEngine(8)
	const batches = 6
	var wg sync.WaitGroup
	errs := make([]error, batches)
	results := make([][]*core.Result, batches)
	perm := make([][]int, batches)
	for b := range perm {
		// Each batch requests the same key set in a different order, so
		// shards see claim/coalesce/hit races from every direction.
		perm[b] = rand.New(rand.NewSource(int64(b))).Perm(len(jobs))
	}
	for b := 0; b < batches; b++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			shuffled := make([]Job, len(jobs))
			for i, p := range perm[b] {
				shuffled[i] = jobs[p]
			}
			results[b], errs[b] = eng.RunAll(context.Background(), shuffled)
		}(b)
	}
	wg.Wait()
	for b := 0; b < batches; b++ {
		if errs[b] != nil {
			t.Fatalf("batch %d: %v", b, errs[b])
		}
		for i, p := range perm[b] {
			if !reflect.DeepEqual(results[b][i], want[p]) {
				t.Errorf("batch %d job %d: racing result differs from reference", b, p)
			}
		}
	}

	st := eng.Stats()
	if st.Simulations != int64(len(uniqueKeys)) {
		t.Errorf("simulations = %d, want %d (each unique key computed exactly once; stats %+v)",
			st.Simulations, len(uniqueKeys), st)
	}
	if st.Structures != int64(len(uniqueStructures)) {
		t.Errorf("structures = %d, want %d (each structure built exactly once; stats %+v)",
			st.Structures, len(uniqueStructures), st)
	}
	if st.Canceled != 0 {
		t.Errorf("canceled = %d, want 0 (stats %+v)", st.Canceled, st)
	}
}

// TestPricedCountsOnlyStructureServedResults pins what Stats.Priced counts:
// an oracle request that builds its configuration's structure is a structure
// build, not a priced result, and a later oracle request of the same
// configuration at another capacity is served from that structure — priced.
func TestPricedCountsOnlyStructureServedResults(t *testing.T) {
	net := networks.AlexNet(128)
	eng := NewEngine(1)
	for i, c := range []struct {
		memBytes                   int64
		wantStructures, wantPriced int64
	}{
		{2 << 30, 1, 0},
		{4 << 30, 1, 1},
	} {
		cfg := core.Config{Spec: gpu.TitanX().WithMemory(c.memBytes), Policy: core.VDNNAll, Algo: core.MemOptimal, Oracle: true}
		got, err := eng.Run(context.Background(), net, cfg)
		if err != nil {
			t.Fatalf("oracle request %d: %v", i, err)
		}
		want, err := core.Run(net, cfg)
		if err != nil {
			t.Fatalf("core.Run %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("oracle request %d differs from full simulation", i)
		}
		if st := eng.Stats(); st.Structures != c.wantStructures || st.Priced != c.wantPriced {
			t.Errorf("after oracle request %d: structures %d, priced %d; want %d, %d (stats %+v)",
				i, st.Structures, st.Priced, c.wantStructures, c.wantPriced, st)
		}
	}
}

// TestDifferentialRandomConfigs widens the equivalence guarantee beyond the
// hand-picked grids: seeded random sweeps over network, batch, policy,
// algorithm, codec and device/stage shape, each column swept over random
// capacities — oracle requests, the sentinel capacity, untrainable
// capacities and repeated keys among them — must come out of the production
// engine at parallelism > 1 reflect.DeepEqual to the full-simulation
// reference.
func TestDifferentialRandomConfigs(t *testing.T) {
	nets := []*dnn.Network{
		networks.AlexNet(32), networks.AlexNet(128), networks.GoogLeNet(32),
		networks.VGG16(32), networks.ResNet50(16),
	}
	caps := []int64{256 << 20, 1 << 30, 2 << 30, 3 << 30, 4 << 30, 8 << 30, 12 << 30, oracleMemSentinel}
	policies := []core.Policy{core.Baseline, core.VDNNAll, core.VDNNConv, core.VDNNDyn}
	algos := []core.AlgoMode{core.MemOptimal, core.PerfOptimal, core.GreedyAlgo}
	codecs := []compress.Codec{compress.CodecNone, compress.CodecZVC, compress.CodecRLE}
	// Devices × stages; single-device shapes dominate, because only they
	// take the differential path.
	shapes := [][2]int{{1, 1}, {1, 1}, {1, 1}, {2, 1}, {1, 2}}

	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// Draw sweep columns in pairs that differ in one dimension, so keys
		// that must not share a structure sit side by side, then sweep
		// points over them, so capacities of one column share a structure
		// the way figure sweeps do.
		vary := func(j *Job, dim int) {
			switch dim {
			case 0:
				j.Net = nets[rng.Intn(len(nets))]
			case 1:
				j.Cfg.Policy = policies[rng.Intn(len(policies))]
			case 2:
				j.Cfg.Algo = algos[rng.Intn(len(algos))]
			case 3:
				j.Cfg.Compression.Codec = codecs[rng.Intn(len(codecs))]
			case 4:
				shape := shapes[rng.Intn(len(shapes))]
				j.Cfg.Devices, j.Cfg.Stages = shape[0], shape[1]
			}
		}
		columns := make([]Job, 12)
		for i := range columns {
			if i%2 == 1 {
				columns[i] = columns[i-1]
				vary(&columns[i], rng.Intn(5))
				continue
			}
			columns[i].Cfg.Spec = gpu.TitanX()
			for dim := 0; dim < 5; dim++ {
				vary(&columns[i], dim)
			}
		}
		var jobs []Job
		for len(jobs) < 60 {
			if len(jobs) > 0 && rng.Intn(8) == 0 {
				jobs = append(jobs, jobs[rng.Intn(len(jobs))])
				continue
			}
			j := columns[rng.Intn(len(columns))]
			j.Cfg.Spec = j.Cfg.Spec.WithMemory(caps[rng.Intn(len(caps))])
			j.Cfg.Oracle = rng.Intn(4) == 0
			jobs = append(jobs, j)
		}

		ref := NewEngine(2)
		ref.SetFullSimulation(true)
		want, err := ref.RunAll(context.Background(), jobs)
		if err != nil {
			t.Fatalf("seed %d: reference RunAll: %v", seed, err)
		}
		eng := NewEngine(4)
		got, err := eng.RunAll(context.Background(), jobs)
		if err != nil {
			t.Fatalf("seed %d: RunAll: %v", seed, err)
		}
		for i, j := range jobs {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("seed %d job %d (%s, %v %v, codec %v, %d×%d, %d MiB, oracle %t): differential result differs from full simulation",
					seed, i, j.Net.Name, j.Cfg.Policy, j.Cfg.Algo, j.Cfg.Compression.Codec,
					j.Cfg.Devices, j.Cfg.Stages, j.Cfg.Spec.MemBytes>>20, j.Cfg.Oracle)
			}
		}
		if st := eng.Stats(); st.Structures == 0 || st.Priced == 0 {
			t.Errorf("seed %d: the differential path went unexercised (stats %+v)", seed, st)
		}
	}
}
