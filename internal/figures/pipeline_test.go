package figures

import (
	"testing"

	"vdnn/internal/gpu"
)

// TestPipelineCaseStudyInvariants pins the physics of the pipeline-vs-data-
// parallel study: both multi-GPU modes beat the single device on the
// 256-image batch, each pays its own interconnect bill (all-reduce vs
// inter-stage hand-offs, never both), and more micro-batches never enlarge
// the pipeline bubble.
func TestPipelineCaseStudyInvariants(t *testing.T) {
	s := NewSuite(gpu.TitanX())
	rs := s.Prime(s.caseStudyPipelineJobs())
	single, dp := rs[0], rs[1]

	if dp.AllReduceBytes == 0 || dp.InterStageBytes != 0 {
		t.Fatalf("data-parallel traffic: all-reduce %d, inter-stage %d", dp.AllReduceBytes, dp.InterStageBytes)
	}

	prevBubble := 1.0
	for i, m := range pipelineMicroBatchCounts {
		r := rs[2+i]
		if !r.Trainable {
			t.Fatalf("pipeline M=%d untrainable: %s", m, r.FailReason)
		}
		if r.AllReduceBytes != 0 || r.InterStageBytes == 0 {
			t.Fatalf("pipeline M=%d traffic: all-reduce %d, inter-stage %d", m, r.AllReduceBytes, r.InterStageBytes)
		}
		if r.IterTime >= single.IterTime {
			t.Errorf("pipeline M=%d (%v) does not beat the single GPU (%v)", m, r.IterTime, single.IterTime)
		}
		if r.BubbleFraction > prevBubble {
			t.Errorf("bubble fraction grew with micro-batches: M=%d at %.3f > %.3f", m, r.BubbleFraction, prevBubble)
		}
		prevBubble = r.BubbleFraction
	}
}
