package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"

	"vdnn"
	"vdnn/internal/figures"
	"vdnn/internal/gpu"
	"vdnn/internal/sweep"
)

// reproDigest is the SHA-256 of `vdnn-repro` standard output (all
// experiments, aligned tables), which is byte-identical at any -j.
const reproDigest = "2870fafc137c40ac7f3cedd70530c82fbbf05f5346ab3804ad4cdb5a9a1e3487"

// reproSession runs the full reproduction as vdnn-repro does: one op is
// every experiment's simulations enqueued as one batch on a fresh simulator
// (cold cache, no store) at parallelism nproc, then every table rendered.
type reproSession struct {
	tr  *tracer
	rng *rand.Rand // permutes the batch's job order; output must not change

	stats sweep.Stats // summed over traced ops
	n     int
}

func setupRepro(seed int64, tr *tracer, _ string) (session, error) {
	return &reproSession{tr: tr, rng: rand.New(rand.NewSource(seed))}, nil
}

func (r *reproSession) op() (opTime, error) {
	var out bytes.Buffer
	out.Grow(64 << 10)
	perm := r.rng.Int63()

	sw := startWatch()
	sim := vdnn.NewSimulator(vdnn.WithParallelism(nproc))
	suite := figures.NewSuiteSim(gpu.TitanX(), sim)
	exps := suite.Experiments()
	var batch []sweep.Job
	r.tr.span("figures.jobs_ms", func() {
		for _, e := range exps {
			batch = append(batch, e.Jobs()...)
		}
		rand.New(rand.NewSource(perm)).Shuffle(len(batch), func(i, j int) { batch[i], batch[j] = batch[j], batch[i] })
	})
	r.tr.span("sweep.prime_ms", func() { suite.Prime(batch) })
	r.tr.span("figures.gen_ms", func() {
		for _, e := range exps {
			e.Gen().Render(&out)
			out.WriteByte('\n')
		}
	})
	d := sw.stop()
	r.tr.op(d.wall)

	if r.tr.on.Load() {
		r.stats = addStats(r.stats, sim.Stats())
		r.n++
	}
	sum := sha256.Sum256(out.Bytes())
	if got := hex.EncodeToString(sum[:]); got != reproDigest {
		return d, fmt.Errorf("repro: rendered tables digest %s, want %s", got, reproDigest)
	}
	return d, nil
}

func (r *reproSession) verify() error { return nil }

func (r *reproSession) layers(out metricSet, _ int) { sweepLayers(out, r.stats, r.n) }

func (r *reproSession) mark()  {}
func (r *reproSession) close() {}

func addStats(a, b sweep.Stats) sweep.Stats {
	a.Simulations += b.Simulations
	a.Structures += b.Structures
	a.Priced += b.Priced
	a.Hits += b.Hits
	a.Coalesced += b.Coalesced
	a.Evictions += b.Evictions
	a.Canceled += b.Canceled
	return a
}

// sweepLayers reports the engine counters per op.
func sweepLayers(out metricSet, st sweep.Stats, n int) {
	per := func(v int64) float64 {
		if n == 0 {
			return 0
		}
		return float64(v) / float64(n)
	}
	out.set("sweep.simulations", per(st.Simulations), "count/op")
	out.set("sweep.structures", per(st.Structures), "count/op")
	out.set("sweep.priced", per(st.Priced), "count/op")
	out.set("sweep.hits", per(st.Hits), "count/op")
	out.set("sweep.coalesced", per(st.Coalesced), "count/op")
	out.set("sweep.evictions", per(st.Evictions), "count/op")
	out.set("sweep.canceled", per(st.Canceled), "count/op")
	ratio := 0.0
	if st.Priced+st.Structures > 0 {
		ratio = float64(st.Priced) / float64(st.Priced+st.Structures)
	}
	out.set("sweep.priced_ratio", ratio, "ratio")
}

// paperGap is the mean absolute gap, in percentage points, between the
// simulator and the paper's reported numbers (arXiv 1602.08124): average
// memory savings of vDNN-all(m) for AlexNet/OverFeat/GoogLeNet (89/91/95%,
// Fig 11), the vDNN-dyn performance mean and worst case over the
// conventional networks (0.97/0.82 of the oracle baseline, Fig 14), and the
// baseline memory need of VGG-16 (256), 28 GB (gap as a relative %). These
// are simulated quantities; this is the model's only validation against
// the paper.
func paperGap() (float64, error) {
	sim := vdnn.NewSimulator(vdnn.WithParallelism(nproc))
	spec := vdnn.TitanX()
	ctx := context.Background()
	runs := func(net *vdnn.Network, cfgs ...vdnn.Config) ([]*vdnn.Result, error) {
		jobs := make([]vdnn.BatchJob, len(cfgs))
		for i, c := range cfgs {
			c.Spec = spec
			jobs[i] = vdnn.BatchJob{Net: net, Cfg: c}
		}
		return sim.RunBatch(ctx, jobs)
	}
	allM := vdnn.Config{Policy: vdnn.VDNNAll, Algo: vdnn.MemOptimal}
	baseM := vdnn.Config{Policy: vdnn.Baseline, Algo: vdnn.MemOptimal}
	baseP := vdnn.Config{Policy: vdnn.Baseline, Algo: vdnn.PerfOptimal}
	oracle := vdnn.Config{Policy: vdnn.Baseline, Algo: vdnn.PerfOptimal, Oracle: true}
	dyn := vdnn.Config{Policy: vdnn.VDNNDyn}

	var gaps []float64
	paperSavings := []float64{89, 91, 95}
	convNets := []*vdnn.Network{vdnn.AlexNet(128), vdnn.OverFeat(128), vdnn.GoogLeNet(128),
		vdnn.VGG16(64), vdnn.VGG16(128), vdnn.VGG16(256)}
	var dynSum, dynWorst float64 = 0, math.Inf(1)
	for i, net := range convNets {
		rs, err := runs(net, allM, baseM, baseP, oracle, dyn)
		if err != nil {
			return 0, err
		}
		if i < len(paperSavings) {
			base := rs[1]
			if rs[2].Trainable || !rs[1].Trainable {
				base = rs[2]
			}
			save := 100 * (1 - float64(rs[0].AvgUsage)/float64(base.AvgUsage))
			gaps = append(gaps, math.Abs(save-paperSavings[i]))
		}
		perf := float64(rs[3].FETime) / float64(rs[4].FETime)
		dynSum += perf
		dynWorst = min(dynWorst, perf)
		if i == len(convNets)-1 {
			const paperMiB = 28 << 10
			gaps = append(gaps, 100*math.Abs(float64(rs[2].MaxUsage)/(1<<20)-paperMiB)/paperMiB)
		}
	}
	gaps = append(gaps, math.Abs(100*dynSum/float64(len(convNets))-97), math.Abs(100*dynWorst-82))
	sum := 0.0
	for _, g := range gaps {
		sum += g
	}
	return sum / float64(len(gaps)), nil
}
