package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"time"

	"vdnn"
	"vdnn/internal/core"
	"vdnn/internal/sweep"
)

// sweepFingerprint is the SHA-256 of the capacity sweep's results in
// canonical job order (see fingerprint).
const sweepFingerprint = "e5163589be888cdb648155c2f44dda8973919a60ff06fc76556b90dedb3e7398"

// sweepCapacitiesGB are the 48 device capacities of the sweep, 1 to 48 GB.
var sweepCapacitiesGB = func() []int64 {
	gbs := make([]int64, 48)
	for i := range gbs {
		gbs[i] = int64(i + 1)
	}
	return gbs
}()

// sweepBatches are the batch sizes each network is swept at.
var sweepBatches = []int{32, 64, 128, 256}

// sweepColumns are the 4 policy/algorithm columns; all are structure-shaped,
// so every capacity after a column's first is priced by allocator-trace
// replay instead of re-simulated.
var sweepColumns = []vdnn.Config{
	{Policy: vdnn.Baseline, Algo: vdnn.PerfOptimal},
	{Policy: vdnn.VDNNAll, Algo: vdnn.MemOptimal},
	{Policy: vdnn.VDNNAll, Algo: vdnn.PerfOptimal},
	{Policy: vdnn.VDNNConv, Algo: vdnn.PerfOptimal},
}

// sweepSession runs the structure-shared capacity sweep: 4 networks x 4
// batches x 4 columns x 48 capacities = 3072 points (64 structures) through
// RunBatch on a fresh simulator at parallelism 1 per op. The grid is this
// fine so that an op lasts about half a second on a 2-vCPU host: CPU time
// a shared host's hypervisor steals comes in bursts of milliseconds, which
// average out over an op that long but set the tail of a 30 ms one.
type sweepSession struct {
	tr    *tracer
	rng   *rand.Rand
	jobs  []vdnn.BatchJob // canonical order
	stats sweep.Stats     // summed over traced ops
	n     int
}

func sweepJobs() []vdnn.BatchJob {
	var jobs []vdnn.BatchJob
	for _, build := range []func(int) *vdnn.Network{vdnn.AlexNet, vdnn.OverFeat, vdnn.GoogLeNet, vdnn.VGG16} {
		for _, batch := range sweepBatches {
			net := build(batch)
			for _, col := range sweepColumns {
				for _, gb := range sweepCapacitiesGB {
					cfg := col
					cfg.Spec = vdnn.TitanX()
					cfg.Spec.MemBytes = gb << 30
					jobs = append(jobs, vdnn.BatchJob{Net: net, Cfg: cfg})
				}
			}
		}
	}
	return jobs
}

func setupSweep(seed int64, tr *tracer, _ string) (session, error) {
	return &sweepSession{tr: tr, rng: rand.New(rand.NewSource(seed)), jobs: sweepJobs()}, nil
}

func (s *sweepSession) op() (opTime, error) {
	// The seed permutes the batch's job order; results must not change.
	perm := s.rng.Perm(len(s.jobs))
	jobs := make([]vdnn.BatchJob, len(s.jobs))
	for i, p := range perm {
		jobs[i] = s.jobs[p]
	}

	sw := startWatch()
	sim := vdnn.NewSimulator(vdnn.WithParallelism(1))
	var res []*vdnn.Result
	var err error
	s.tr.span("sweep.run_batch_ms", func() { res, err = sim.RunBatch(context.Background(), jobs) })
	d := sw.stop()
	s.tr.op(d.wall)

	if err != nil {
		return d, fmt.Errorf("capacity-sweep: %w", err)
	}
	if s.tr.on.Load() {
		s.stats = addStats(s.stats, sim.Stats())
		s.n++
	}
	canon := make([]*vdnn.Result, len(res))
	for i, p := range perm {
		canon[p] = res[i]
	}
	if got := fingerprint(canon); got != sweepFingerprint {
		return d, fmt.Errorf("capacity-sweep: result fingerprint %s, want %s", got, sweepFingerprint)
	}
	return d, nil
}

// fingerprint hashes the user-visible fields of each result, in order.
func fingerprint(res []*vdnn.Result) string {
	h := sha256.New()
	for _, r := range res {
		fmt.Fprintf(h, "%s|%d|%s|%v|%v|%d|%d|%d|%d|%d|%d|%d|%q\n", r.Network, r.Batch, r.PolicyName,
			r.Trainable, r.Oracle, r.IterTime, r.FETime, r.MaxUsage, r.AvgUsage,
			r.OffloadBytes, r.PrefetchBytes, r.FrameworkBytes, r.FailReason)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// verify checks the differential (structure-priced) results against the
// full simulation of every point: they must be reflect.DeepEqual.
func (s *sweepSession) verify() error {
	ctx := context.Background()
	diff, err := vdnn.NewSimulator(vdnn.WithParallelism(1)).RunBatch(ctx, s.jobs)
	if err != nil {
		return err
	}
	full, err := vdnn.NewSimulator(vdnn.WithParallelism(1), vdnn.WithFullSimulation()).RunBatch(ctx, s.jobs)
	if err != nil {
		return err
	}
	for i := range s.jobs {
		if !reflect.DeepEqual(diff[i], full[i]) {
			return fmt.Errorf("capacity-sweep: point %d (%s, %s, %d GB): differential result differs from full simulation",
				i, s.jobs[i].Net.Name, s.jobs[i].Cfg.Policy, s.jobs[i].Cfg.Spec.MemBytes>>30)
		}
	}
	return nil
}

// layers reports the engine counters per op and times the core layer's
// public calls directly over the same 3072 points: one structure build per
// network, batch and column, then Price and a full RunContext for every
// point.
func (s *sweepSession) layers(out metricSet, _ int) {
	sweepLayers(out, s.stats, s.n)
	ctx := context.Background()
	var buildNS, priceNS, runNS time.Duration
	var builds, prices, runs int
	per := len(sweepCapacitiesGB)
	for i := 0; i < len(s.jobs); i += per {
		col := s.jobs[i : i+per]
		top := col[per-1] // the largest capacity: a trainable, real-capacity build
		t0 := time.Now()
		st, _, err := core.BuildStructureAt(ctx, top.Net, top.Cfg)
		buildNS += time.Since(t0)
		builds++
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: BuildStructureAt:", err)
			continue
		}
		for _, j := range col {
			t0 = time.Now()
			_, _, err = st.Price(ctx, j.Net, j.Cfg)
			priceNS += time.Since(t0)
			prices++
			if err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: Price:", err)
			}
			t0 = time.Now()
			_, err = core.RunContext(ctx, j.Net, j.Cfg)
			runNS += time.Since(t0)
			runs++
			if err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: RunContext:", err)
			}
		}
	}
	out.set("core.build_structure_ms", float64(buildNS)/1e6/float64(builds), "ms")
	out.set("core.price_us", float64(priceNS)/1e3/float64(max(prices, 1)), "us")
	out.set("core.run_ms", float64(runNS)/1e6/float64(max(runs, 1)), "ms")
}

func (s *sweepSession) mark()  {}
func (s *sweepSession) close() {}
