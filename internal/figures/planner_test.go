package figures

import (
	"context"
	"testing"

	"vdnn/internal/gpu"
)

// TestPlannerCaseStudyAcceptance pins the planner case study's claims: the
// search on VGG-16 (256) under a 16 GB cap prunes at least half of the full
// candidate space without paying for a simulation, and the configuration it
// picks trains under the cap at a step time no worse than any of the
// hand-tuned alternatives it is compared against.
func TestPlannerCaseStudyAcceptance(t *testing.T) {
	s := NewSuite(gpu.TitanX())
	rs := s.Prime(s.caseStudyPlannerJobs())

	p, err := s.sim.Plan(context.Background(), s.plannerRequest())
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	if !p.Feasible || p.Best == nil || p.Result == nil {
		t.Fatalf("expected a feasible plan, got %+v", p)
	}
	if !p.Result.Trainable {
		t.Fatalf("winner untrainable: %s", p.Result.FailReason)
	}
	if peak := p.Result.TotalMaxUsage(); peak > plannerMemCap {
		t.Fatalf("winner peak %d exceeds the %d cap", peak, plannerMemCap)
	}

	c := p.Counters
	if frac := float64(c.Pruned) / float64(c.Space); frac < 0.5 {
		t.Errorf("pruned only %.0f%% of the %d-candidate space (counters %+v); the case study claims >= 50%%",
			100*frac, c.Space, c)
	}

	for i, name := range plannerHandTuned {
		r := rs[i]
		if r.Trainable && p.Result.IterTime > r.IterTime {
			t.Errorf("%s (%v) beats the planner's pick (%v)", name, r.IterTime, p.Result.IterTime)
		}
	}
}
