package figures

import (
	"context"
	"fmt"

	"vdnn"
	"vdnn/internal/gpu"
	"vdnn/internal/plan"
	"vdnn/internal/report"
	"vdnn/internal/sweep"
)

// The energy case study: the same workload and offload policy priced on
// three points of the accelerator catalog — the paper's Titan X (GDDR5
// behind PCIe gen3), a Pascal-P100-class part (HBM2 behind NVLink) and a
// RAPIDNN-style near-memory accelerator whose offload traffic rides an
// on-die fabric — with the per-op joule breakdown the power model now
// accounts. The footnote documents the planner-objective flip: on the
// planner case study's fleet, minimizing step time and minimizing energy
// pick different winners.

// energyBackends lists the catalog points of the study in row order.
var energyBackends = []struct {
	label string
	spec  gpu.Spec
}{
	{"Titan X (GDDR5 + PCIe gen3)", gpu.TitanX()},
	{"P100 (HBM2 + NVLink)", gpu.PascalP100()},
	{"RAPIDNN near-memory (on-die)", gpu.RapidNN()},
}

// energyPlanRequest returns the planner case study's problem under the
// given objective, so the flip is measured on an already-documented fleet.
func (s *Suite) energyPlanRequest(o vdnn.PlanObjective) vdnn.PlanRequest {
	req := s.plannerRequest()
	req.Objective = o
	return req
}

func (s *Suite) caseStudyEnergyJobs() []sweep.Job {
	// Both searches run through the shared cache (see caseStudyPlannerJobs);
	// the energy-objective search evaluates the same candidate set, so only
	// the argmin differs.
	for _, o := range []vdnn.PlanObjective{vdnn.MinimizeTime, vdnn.MinimizeEnergy} {
		if _, err := s.sim.Plan(context.Background(), s.energyPlanRequest(o)); err != nil {
			panic(fmt.Sprintf("figures: energy planner: %v", err))
		}
	}
	var backends plan.Axis
	for _, b := range energyBackends {
		backends = append(backends, deviceVariant(b.spec))
	}
	return s.cross(s.vgg16(64), backends, plan.Axis{allM})
}

// CaseStudyEnergy renders VGG-16 (64) under vDNN-all(m) on each backend:
// step time, average power and the energy-per-iteration breakdown. The
// breakdown sums to the power-timeline integral by construction (the
// conservation invariant tested in internal/core and on every experiment of
// this suite).
func (s *Suite) CaseStudyEnergy() *report.Table {
	rs := s.Prime(s.caseStudyEnergyJobs())
	t := report.NewTable("Case study — energy per iteration across accelerator backends (VGG-16 (64), vDNN-all(m))",
		"backend", "mem", "iter (ms)", "avg W", "J/iter", "compute J", "dma J", "idle J", "dma share")
	for i, b := range energyBackends {
		r := rs[i]
		e := r.Energy
		t.AddRow(b.label, b.spec.MemKind.String(),
			report.FmtMs(int64(r.IterTime)), fmt.Sprintf("%.0f", r.Power.AvgW),
			fmt.Sprintf("%.1f", e.TotalJ()),
			fmt.Sprintf("%.1f", e.ComputeJ), fmt.Sprintf("%.2f", e.DMAJ),
			fmt.Sprintf("%.1f", e.IdleJ), report.FmtPct(e.DMAJ/e.TotalJ()))
	}

	timePlan, err := s.sim.Plan(context.Background(), s.energyPlanRequest(vdnn.MinimizeTime))
	if err != nil {
		panic(fmt.Sprintf("figures: energy planner: %v", err))
	}
	energyPlan, err := s.sim.Plan(context.Background(), s.energyPlanRequest(vdnn.MinimizeEnergy))
	if err != nil {
		panic(fmt.Sprintf("figures: energy planner: %v", err))
	}
	t.AddNote("planner objective flip (VGG-16 (256), <=4 GPUs, 16 GB cap, shared gen3 root): "+
		"minimize time picks %s %s (%.0f ms, %.0f J); minimize energy picks %s %s (%.0f ms, %.0f J)",
		timePlan.Best.Mode(), timePlan.Best.PolicyLabel(),
		timePlan.Result.IterTime.Msec(), timePlan.Result.Energy.TotalJ(),
		energyPlan.Best.Mode(), energyPlan.Best.PolicyLabel(),
		energyPlan.Result.IterTime.Msec(), energyPlan.Result.Energy.TotalJ())
	return t
}
