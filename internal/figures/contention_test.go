package figures

import (
	"testing"

	"vdnn"
	"vdnn/internal/gpu"
	"vdnn/internal/sim"
)

// TestContentionMonotonicStepTime is the case study's acceptance criterion:
// under vDNN-all on the shared root complex, mean per-replica step time
// never improves as replicas are added — contention only costs.
func TestContentionMonotonicStepTime(t *testing.T) {
	if testing.Short() {
		t.Skip("full contention study; skipped in -short mode")
	}
	s := NewSuiteSim(gpu.TitanX(), vdnn.NewSimulator(vdnn.WithParallelism(4)))
	prev := sim.Time(0)
	for i, row := range rows(s.Prime(s.caseStudyContentionJobs()), 2) {
		c, r := contentionDeviceCounts[i], row[0] // vDNN-all(m)
		if !r.Trainable {
			t.Fatalf("%d replicas untrainable: %s", c, r.FailReason)
		}
		step, _, overlap := r.ReplicaMeans()
		if step < prev {
			t.Fatalf("per-replica step time improved from %v to %v at %d replicas", prev, step, c)
		}
		if overlap < 0 || overlap > 1 {
			t.Fatalf("overlap efficiency %v outside [0,1] at %d replicas", overlap, c)
		}
		prev = step
	}
}

// TestContentionTableShape pins the table layout the benchmarks read.
func TestContentionTableShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full contention study; skipped in -short mode")
	}
	s := NewSuite(gpu.TitanX())
	tab := s.CaseStudyContention()
	if len(tab.Rows) != len(contentionDeviceCounts) {
		t.Fatalf("rows = %d, want %d", len(tab.Rows), len(contentionDeviceCounts))
	}
}
