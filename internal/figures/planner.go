package figures

import (
	"context"
	"fmt"

	"vdnn"
	"vdnn/internal/core"
	"vdnn/internal/pcie"
	"vdnn/internal/plan"
	"vdnn/internal/report"
	"vdnn/internal/sweep"
)

// The auto-parallelism case study: hand the planner the problem the
// data-parallelism and pipeline case studies solved by hand — VGG-16's
// 256-image global batch on up to four 16 GB GPUs behind one shared gen3
// x16 root complex — and compare its pick against the hand-tuned
// configurations, with the search's own bill (evaluated vs pruned) in the
// footnote.

// plannerMemCap is the per-device memory cap of the study.
const plannerMemCap int64 = 16 << 30

// plannerRequest is the planning problem handed to the search.
func (s *Suite) plannerRequest() vdnn.PlanRequest {
	return vdnn.PlanRequest{
		Network:     "vgg16",
		Batch:       256,
		Spec:        s.Spec,
		MemCapBytes: plannerMemCap,
		MaxDevices:  4,
		Topology:    pcie.SharedGen3Root(),
	}
}

// plannerHandTuned names the configurations a practitioner would reach for
// without the planner, in caseStudyPlannerJobs order: the single-GPU vDNN
// reference and the hand-tuned data-parallel and pipeline splits of the
// earlier case studies, all on the same capped fleet.
var plannerHandTuned = []string{
	"hand-tuned: 1 GPU vDNN-all(m)",
	"hand-tuned: data-parallel 4x64 vDNN-all(m)",
	"hand-tuned: pipeline 4 stages M=16 vDNN-all(m)",
}

func (s *Suite) caseStudyPlannerJobs() []sweep.Job {
	// The search's evaluation set cannot be enumerated statically without
	// re-implementing its pruning, but the search is deterministic and runs
	// through the suite's shared cache: running it here makes the priming
	// pass cover everything CaseStudyPlanner reads, so its own search is
	// answered entirely from cache.
	if _, err := s.sim.Plan(context.Background(), s.plannerRequest()); err != nil {
		panic(fmt.Sprintf("figures: planner: %v", err))
	}
	return s.parallelJobs(plan.CapacityVariant(plannerMemCap), 16)
}

// CaseStudyPlanner runs the design-space search and renders its pick next
// to the hand-tuned alternatives: same workload, same fleet, and the step
// time each one actually delivers under the cap.
func (s *Suite) CaseStudyPlanner() *report.Table {
	rs := s.Prime(s.caseStudyPlannerJobs())
	p, err := s.sim.Plan(context.Background(), s.plannerRequest())
	if err != nil {
		panic(fmt.Sprintf("figures: planner: %v", err))
	}

	t := report.NewTable("Case study — auto-parallelism planner: VGG-16, 256-image global batch, <=4 GPUs, 16 GB cap",
		"setup", "iter (ms)", "img/s", "peak/GPU (MB)", "vs planner")
	row := func(name string, r *core.Result, ratio float64) {
		t.AddRow(name, report.FmtMs(int64(r.IterTime)),
			fmt.Sprintf("%.0f", 256/r.IterTime.Seconds()),
			report.FmtMiB(r.TotalMaxUsage()),
			fmt.Sprintf("%.2fx", ratio))
	}

	best, res := p.Best, p.Result
	row(fmt.Sprintf("planner pick: %s %s codec %s", best.Mode(), best.PolicyLabel(), best.CodecLabel()),
		res, 1)
	for i, name := range plannerHandTuned {
		row(name, rs[i], float64(rs[i].IterTime)/float64(res.IterTime))
	}

	c := p.Counters
	t.AddNote("the search covered a %d-candidate space with %d simulations (%d refined); %d candidates (%.0f%%) were pruned by monotonicity/domination without being evaluated",
		c.Space, c.Evaluated, c.Refined, c.Pruned, 100*float64(c.Pruned)/float64(c.Space))
	return t
}
