package figures

import (
	"fmt"

	"vdnn/internal/core"
	"vdnn/internal/pcie"
	"vdnn/internal/plan"
	"vdnn/internal/report"
	"vdnn/internal/sweep"
)

// contentionDeviceCounts are the replica counts of the interconnect
// contention case study.
var contentionDeviceCounts = []int{1, 2, 4, 8}

// sharedRoot runs the given number of data-parallel replicas, every one
// behind one shared gen3 x16 uplink — the worst-case topology the
// "Compressing DMA Engine" follow-up motivates.
func sharedRoot(devices int) plan.Variant { return plan.DevicesVariant(devices, pcie.SharedGen3Root()) }

// caseStudyContentionJobs is the simulation set: vDNN-all(m) and
// baseline(p) on VGG-16 (64 per replica) at 1/2/4/8 replicas.
func (s *Suite) caseStudyContentionJobs() []sweep.Job {
	return s.cross(s.vgg16(64), axis(sharedRoot, contentionDeviceCounts...), plan.Axis{allM, baseP})
}

// CaseStudyContention answers the scale question the paper's bandwidth
// sensitivity analysis (Section VI) leaves open: vDNN hides its offload and
// prefetch traffic behind compute when one GPU owns the PCIe link — does it
// still when 2-8 data-parallel replicas share a root complex and add
// gradient all-reduce traffic on top? Per-replica step time, contention
// stalls and overlap efficiency of vDNN-all(m) against the no-offload
// baseline, on a single shared x16 uplink.
func (s *Suite) CaseStudyContention() *report.Table {
	t := report.NewTable("Case study — interconnect contention: VGG-16 (64/replica) on one shared x16 root complex",
		"GPUs", "vDNN step/replica (ms)", "vDNN stall (ms)", "vDNN overlap", "base step/replica (ms)", "vDNN img/s", "base img/s")
	for i, row := range rows(s.Prime(s.caseStudyContentionJobs()), 2) {
		c, dyn, base := contentionDeviceCounts[i], row[0], row[1]
		dynStep, dynStall, dynOverlap := dyn.ReplicaMeans()
		baseStep, _, _ := base.ReplicaMeans()
		imgs := func(r *core.Result) string {
			return fmt.Sprintf("%.0f", float64(64*c)/r.IterTime.Seconds())
		}
		t.AddRow(fmt.Sprintf("%d", c),
			report.FmtMs(int64(dynStep)), report.FmtMs(int64(dynStall)), report.FmtPct(dynOverlap),
			report.FmtMs(int64(baseStep)), imgs(dyn), imgs(base))
	}
	t.AddNote("offload/prefetch traffic that hides behind compute on a dedicated link becomes exposed as replicas contend; the all-reduce rides the same wires")
	return t
}
