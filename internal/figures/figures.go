// Package figures regenerates every table and figure of the paper's
// evaluation (Section V) from the simulator: Figures 1, 4, 5, 6, 11, 12,
// 13, 14 and 15 plus the Section V-D power study, and the ablations the
// paper discusses qualitatively (prefetch scheduling, page migration,
// interconnect and capacity what-ifs). Each experiment declares its
// simulations once, as a jobs function — products built with plan.CrossJobs
// over plan.Axis values, the generator vdnn-explore and the planner share —
// and formats a report.Table from the results of exactly those jobs, read
// back by position. The table's rows mirror the corresponding figure's
// series; cmd/vdnn-repro prints them and the root-level benchmarks publish
// their headline values as benchmark metrics.
package figures

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"vdnn"
	"vdnn/internal/core"
	"vdnn/internal/dnn"
	"vdnn/internal/gpu"
	"vdnn/internal/memalloc"
	"vdnn/internal/networks"
	"vdnn/internal/plan"
	"vdnn/internal/report"
	"vdnn/internal/sweep"
)

// Suite runs the evaluation on the public vdnn.Simulator: one result cache
// shared by every figure, ablation and case study — the same (network,
// config) pair is simulated exactly once across the whole evaluation — with
// simulations scheduled over the simulator's worker pool. Each experiment
// primes its jobs as one batch, so independent simulations of one table run
// concurrently, and formats its rows from the results that batch returns.
// Simulations are deterministic, which makes every table byte-identical
// regardless of parallelism.
type Suite struct {
	Spec gpu.Spec

	sim *vdnn.Simulator

	mu      sync.Mutex
	nets    map[string]*dnn.Network
	timings map[string]time.Duration // formatting time of each experiment's last Gen
	prime   time.Duration            // wall clock of every Prime batch so far
}

// NewSuite creates a Suite for the given device (use gpu.TitanX() for the
// paper's platform) running on all available cores.
func NewSuite(spec gpu.Spec) *Suite {
	return NewSuiteSim(spec, vdnn.NewSimulator())
}

// NewSuiteSim creates a Suite running on an existing simulator
// (vdnn.WithParallelism(1) yields the sequential reference). Sharing one
// simulator across suites bounds their combined parallelism; it does not
// share cached results between them, because the cache keys results by
// network identity and each suite memoizes its own network instances —
// reuse one Suite for warm-cache regeneration.
func NewSuiteSim(spec gpu.Spec, sim *vdnn.Simulator) *Suite {
	return &Suite{Spec: spec, sim: sim, nets: map[string]*dnn.Network{},
		timings: map[string]time.Duration{}}
}

// Simulator exposes the suite's simulator (for cache statistics).
func (s *Suite) Simulator() *vdnn.Simulator { return s.sim }

// Experiment is one table of the evaluation: its vdnn-repro name, its
// simulations and the formatter that renders them. Jobs is the only place
// the experiment's configurations are written down: Gen primes exactly
// those jobs and formats the results in job order. Priming every
// experiment's jobs as one batch up front, as vdnn-repro does, lets the
// engine overlap work across experiments and leaves each Gen all cache hits.
type Experiment struct {
	Name string
	Jobs func() []sweep.Job
	Gen  func() *report.Table
}

// Experiments lists every experiment in the order vdnn-repro prints them.
// Each Gen records its formatting time in the suite — its wall clock minus
// the Prime batches it ran — and every Prime records its own wall clock (see
// Timings). When the simulations run as one batch primed up front, as in
// vdnn-repro, they are attributed to that batch, not to any experiment.
func (s *Suite) Experiments() []Experiment {
	exps := []Experiment{
		{"fig1", s.fig1Jobs, s.Fig1},
		{"fig4", s.fig1Jobs, s.Fig4}, // same simulation set as Figure 1
		{"fig5", s.fig5Jobs, s.Fig5},
		{"fig6", s.fig6Jobs, s.Fig6},
		{"fig11", s.fig11Jobs, s.Fig11},
		{"fig12", s.fig12Jobs, s.Fig12},
		{"fig13", s.fig13Jobs, s.Fig13},
		{"fig14", s.fig14Jobs, s.Fig14},
		{"fig15", s.fig15Jobs, s.Fig15},
		{"power", s.powerJobs, s.Power},
		{"ablation-prefetch", s.ablationPrefetchJobs, s.AblationPrefetch},
		{"ablation-pagemig", s.ablationPageMigrationJobs, s.AblationPageMigration},
		{"ablation-link", s.ablationInterconnectJobs, s.AblationInterconnect},
		{"ablation-capacity", s.ablationCapacityJobs, s.AblationCapacity},
		{"ablation-weights", s.ablationWeightOffloadJobs, s.AblationWeightOffload},
		{"ablation-batch", s.ablationBatchScalingJobs, s.AblationBatchScaling},
		{"case-multigpu", s.caseStudyMultiGPUJobs, s.CaseStudyMultiGPU},
		{"case-contention", s.caseStudyContentionJobs, s.CaseStudyContention},
		{"case-pipeline", s.caseStudyPipelineJobs, s.CaseStudyPipeline},
		{"case-compression", s.caseStudyCompressionJobs, s.CaseStudyCompression},
		{"case-precision", s.caseStudyPrecisionJobs, s.CaseStudyPrecision},
		{"case-devices", s.caseStudyDevicesJobs, s.CaseStudyDevices},
		{"case-resnet", s.caseStudyResNetJobs, s.CaseStudyResNet},
		{"case-plan", s.caseStudyPlannerJobs, s.CaseStudyPlanner},
		{"case-energy", s.caseStudyEnergyJobs, s.CaseStudyEnergy},
	}
	for i := range exps {
		name, gen := exps[i].Name, exps[i].Gen
		exps[i].Gen = func() *report.Table {
			s.mu.Lock()
			primed := s.prime
			s.mu.Unlock()
			start := time.Now()
			t := gen()
			d := time.Since(start)
			s.mu.Lock()
			s.timings[name] = d - (s.prime - primed)
			s.mu.Unlock()
			return t
		}
	}
	return exps
}

// Timings reports the formatting time of every experiment generated so far
// (its most recent Gen, excluding the Prime batches it ran), in experiment
// order, with a note splitting the suite's wall clock into the Prime batches
// that ran the simulations and the formatting, plus the simulator's cache
// counters. Timing lives in this separate table — never in the figure
// tables themselves — so figure output stays byte-identical across runs and
// parallelism levels.
func (s *Suite) Timings() *report.Table {
	s.mu.Lock()
	timings := make(map[string]time.Duration, len(s.timings))
	for k, v := range s.timings {
		timings[k] = v
	}
	prime := s.prime
	s.mu.Unlock()
	t := report.NewTable("Wall clock per experiment", "experiment", "format (ms)")
	var format time.Duration
	for _, e := range s.Experiments() {
		d, ok := timings[e.Name]
		if !ok {
			continue
		}
		format += d
		t.AddRow(e.Name, fmt.Sprintf("%.1f", ms(d)))
	}
	st := s.sim.Stats()
	t.AddNote("prime %.1f ms, format %.1f ms; %d simulations (%d structures, %d priced), %d cache hits",
		ms(prime), ms(format), st.Simulations, st.Structures, st.Priced, st.Hits)
	return t
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// Prime runs a batch of simulations across the simulator's workers, records
// the batch's wall clock for Timings, and returns the results in job order.
// Results an earlier batch computed are cache hits.
func (s *Suite) Prime(jobs []sweep.Job) []*core.Result {
	start := time.Now()
	rs, err := s.sim.RunBatch(context.Background(), jobs)
	if err != nil {
		panic(fmt.Sprintf("figures: %v", err))
	}
	s.mu.Lock()
	s.prime += time.Since(start)
	s.mu.Unlock()
	return rs
}

// net returns a memoized network instance.
func (s *Suite) net(build func() *dnn.Network, key string) *dnn.Network {
	s.mu.Lock()
	defer s.mu.Unlock()
	n, ok := s.nets[key]
	if !ok {
		n = build()
		s.nets[key] = n
	}
	return n
}

// netsOf returns the memoized instances of build at each size.
func (s *Suite) netsOf(name string, build func(int) *dnn.Network, sizes ...int) []*dnn.Network {
	ns := make([]*dnn.Network, len(sizes))
	for i, size := range sizes {
		ns[i] = s.net(func() *dnn.Network { return build(size) }, fmt.Sprintf("%s-%d", name, size))
	}
	return ns
}

func (s *Suite) vgg16(batches ...int) []*dnn.Network {
	return s.netsOf("vgg16", networks.VGG16, batches...)
}

// vggDeep returns the very deep VGG variants (batch 32) with the given
// numbers of CONV layers.
func (s *Suite) vggDeep(convLayers ...int) []*dnn.Network {
	return s.netsOf("vgg-deep", func(l int) *dnn.Network { return networks.VGGDeep(l, 32) }, convLayers...)
}

func (s *Suite) conventional() []*dnn.Network {
	return slices.Concat(s.netsOf("alexnet", networks.AlexNet, 128), s.netsOf("overfeat", networks.OverFeat, 128),
		s.netsOf("googlenet", networks.GoogLeNet, 128), s.vgg16(64, 128, 256))
}

func (s *Suite) veryDeep() []*dnn.Network { return s.vggDeep(116, 216, 316, 416) }

func (s *Suite) all() []*dnn.Network { return append(s.conventional(), s.veryDeep()...) }

// cross pairs nets with the suite's device under the product of the axes
// (plan.CrossJobs); a one-variant axis fixes a setting for every job.
func (s *Suite) cross(nets []*dnn.Network, axes ...plan.Axis) []sweep.Job {
	return plan.CrossJobs(nets, core.Config{Spec: s.Spec}, axes...)
}

// rows splits network-major results (plan.CrossJobs) into one row of k
// results per network.
func rows(rs []*core.Result, k int) [][]*core.Result { return slices.Collect(slices.Chunk(rs, k)) }

// The policy/mode columns of the paper's figures.
var (
	allM    = plan.PolicyVariant(core.VDNNAll, core.MemOptimal)
	allP    = plan.PolicyVariant(core.VDNNAll, core.PerfOptimal)
	convM   = plan.PolicyVariant(core.VDNNConv, core.MemOptimal)
	convP   = plan.PolicyVariant(core.VDNNConv, core.PerfOptimal)
	dynamic = plan.PolicyVariant(core.VDNNDyn, 0)
	baseM   = plan.PolicyVariant(core.Baseline, core.MemOptimal)
	baseP   = plan.PolicyVariant(core.Baseline, core.PerfOptimal)
)

// oracle runs v on a hypothetical GPU with enough memory. oracle(baseP) is
// the paper's normalization target: the baseline with performance-optimal
// algorithms, never short of memory.
func oracle(v plan.Variant) plan.Variant {
	return plan.Variant{Label: "oracle " + v.Label, Apply: func(c core.Config) core.Config {
		c = v.Apply(c)
		c.Oracle = true
		return c
	}}
}

// toggle is a two-value axis: the configuration as it is, then with on
// applied.
func toggle(label string, on func(*core.Config)) plan.Axis {
	return plan.Axis{
		{Label: "as is", Apply: func(c core.Config) core.Config { return c }},
		{Label: label, Apply: func(c core.Config) core.Config {
			on(&c)
			return c
		}},
	}
}

// renamed wraps a device variant so the device's name carries sep and the
// variant's label: every what-if device has a name of its own.
func renamed(v plan.Variant, sep string) plan.Variant {
	return plan.Variant{Label: v.Label, Apply: func(c core.Config) core.Config {
		c = v.Apply(c)
		c.Spec.Name += sep + v.Label
		return c
	}}
}

// deviceVariant swaps the suite's device for spec.
func deviceVariant(spec gpu.Spec) plan.Variant {
	return plan.Variant{Label: spec.Name, Apply: func(c core.Config) core.Config {
		c.Spec = spec
		return c
	}}
}

// axis maps each value to its variant, in order.
func axis[T any](variant func(T) plan.Variant, values ...T) plan.Axis {
	a := make(plan.Axis, len(values))
	for i, v := range values {
		a[i] = variant(v)
	}
	return a
}

// fig1Jobs is the simulation set of Figures 1 and 4: the baseline on every
// studied network.
func (s *Suite) fig1Jobs() []sweep.Job { return s.cross(s.all(), plan.Axis{baseP}) }

// Fig1 reproduces Figure 1: the baseline's network-wide memory allocation
// for all ten studied DNNs and the maximum fraction of it any single layer's
// computation actually uses.
func (s *Suite) Fig1() *report.Table {
	rs := s.Prime(s.fig1Jobs())
	t := report.NewTable("Figure 1 — baseline memory allocation and maximum layer-wise usage",
		"network", "allocation (MB)", "max layer-wise usage", "trainable on 12GB")
	for i, n := range s.all() {
		r := rs[i]
		frac := float64(r.MaxWorkingSet) / float64(r.TotalMaxUsage())
		t.AddRow(n.Name, report.FmtMiB(r.TotalMaxUsage()), report.FmtPct(frac), yesNo(r.Trainable))
	}
	t.AddNote("paper: 6 of 10 DNNs (14-67 GB) exceed the 12 GB Titan X; 53-79%% of memory unused at any time")
	return t
}

// Fig4 reproduces Figure 4: baseline memory usage broken down by function,
// and the share held by feature maps.
func (s *Suite) Fig4() *report.Table {
	rs := s.Prime(s.fig1Jobs())
	t := report.NewTable("Figure 4 — baseline memory breakdown by functionality (MB)",
		"network", "weights", "w-grads", "feature maps", "gradient maps", "workspace", "other", "feature maps %")
	for i, n := range s.all() {
		k := rs[i].PeakByKind
		var total int64
		for _, v := range k {
			total += v
		}
		fmFrac := float64(k[kindFM]) / float64(total)
		t.AddRow(n.Name,
			report.FmtMiB(k[kindW]), report.FmtMiB(k[kindWG]), report.FmtMiB(k[kindFM]),
			report.FmtMiB(k[kindGM]), report.FmtMiB(k[kindWS]), report.FmtMiB(k[kindOther]),
			report.FmtPct(fmFrac))
	}
	t.AddNote("paper: feature maps' share grows monotonically with depth")
	return t
}

func (s *Suite) fig5Jobs() []sweep.Job { return s.cross(s.vgg16(256), plan.Axis{oracle(baseP)}) }

// Fig5 reproduces Figure 5: per-layer memory usage of VGG-16 (256) during
// forward propagation — feature maps + workspace on the left axis, weights
// on the right.
func (s *Suite) Fig5() *report.Table {
	r := s.Prime(s.fig5Jobs())[0]
	t := report.NewTable("Figure 5 — VGG-16 (256) per-layer forward memory usage",
		"layer", "fm+ws (MB)", "weights (MB)")
	for _, ls := range r.Layers {
		if ls.Kind != dnn.Conv && ls.Kind != dnn.FC {
			continue
		}
		fmws := ls.XBytes + ls.YBytes + ls.FwdWSBytes
		t.AddRow(ls.Name, report.FmtMiB(fmws), report.FmtMiB(ls.WeightBytes))
	}
	t.AddNote("intermediate data dominate feature extraction; weights concentrate in the classifier")
	return t
}

func (s *Suite) fig6Jobs() []sweep.Job { return s.cross(s.vgg16(64), plan.Axis{baseM}) }

// Fig6 reproduces Figure 6: VGG-16's per-layer forward/backward latency and
// the reuse distance of each layer's input feature maps (batch 64,
// memory-optimal algorithms, matching the >1200 ms first-layer reuse
// distance quoted in Section III-A).
func (s *Suite) Fig6() *report.Table {
	r := s.Prime(s.fig6Jobs())[0]
	t := report.NewTable("Figure 6 — VGG-16 (64) per-layer latency and reuse distance",
		"layer", "fwd (ms)", "bwd (ms)", "reuse distance (ms)")
	for _, ls := range r.Layers {
		if ls.Kind != dnn.Conv && ls.Kind != dnn.FC {
			continue
		}
		t.AddRow(ls.Name, report.FmtMs(int64(ls.FwdTime)), report.FmtMs(int64(ls.BwdTime)),
			report.FmtMs(int64(ls.ReuseDistance)))
	}
	t.AddNote("paper: first-layer reuse distance > 1200 ms for VGG-16 (64), > 60 ms for AlexNet")
	return t
}

// policyCell formats "max/avg" with the paper's asterisk for untrainable
// configurations.
func policyCell(r *core.Result) string {
	star := ""
	if !r.Trainable {
		star = "*"
	}
	return fmt.Sprintf("%s/%s%s", report.FmtMiB(r.MaxUsage), report.FmtMiB(r.AvgUsage), star)
}

// fig11Cols are Figure 11's columns: every policy and algorithm mode.
var fig11Cols = plan.Axis{allM, allP, convM, convP, dynamic, baseM, baseP}

// fig11Jobs is the full policy/mode cross product over the conventional
// networks.
func (s *Suite) fig11Jobs() []sweep.Job { return s.cross(s.conventional(), fig11Cols) }

// Fig11 reproduces Figure 11: maximum/average GPU memory usage of the vDNN
// policies and the baseline, (m) and (p) algorithm modes, across the six
// conventional networks. Asterisks mark configurations that cannot train.
func (s *Suite) Fig11() *report.Table {
	nets := s.conventional()
	t := report.NewTable("Figure 11 — GPU memory usage, max/avg MB (* = cannot train)",
		"network", "all(m)", "all(p)", "conv(m)", "conv(p)", "dyn", "base(m)", "base(p)", "savings(avg)")
	for i, row := range rows(s.Prime(s.fig11Jobs()), len(fig11Cols)) {
		base := row[5] // base(m), unless base(p) trains or neither does
		if row[6].Trainable || !row[5].Trainable {
			base = row[6]
		}
		cells := []string{nets[i].Name}
		for _, r := range row {
			cells = append(cells, policyCell(r))
		}
		savings := 1 - float64(row[0].AvgUsage)/float64(base.AvgUsage)
		t.AddRow(append(cells, report.FmtPct(savings))...)
	}
	t.AddNote("paper: vDNN-all(m) cuts average usage 73-98%%; baseline cannot train VGG-16 (256)")
	return t
}

func (s *Suite) fig12Jobs() []sweep.Job { return s.cross(s.conventional(), plan.Axis{allM, convM}) }

// Fig12 reproduces Figure 12: the per-iteration offload traffic (equals the
// pinned host allocation) under vDNN-all and vDNN-conv.
func (s *Suite) Fig12() *report.Table {
	nets := s.conventional()
	t := report.NewTable("Figure 12 — offloaded memory per iteration (MB)",
		"network", "vDNN-all", "vDNN-conv")
	for i, row := range rows(s.Prime(s.fig12Jobs()), 2) {
		t.AddRow(nets[i].Name, report.FmtMiB(row[0].OffloadBytes), report.FmtMiB(row[1].OffloadBytes))
	}
	t.AddNote("paper: up to ~15-16 GB offloaded for VGG-16 (256)")
	return t
}

func (s *Suite) fig13Jobs() []sweep.Job { return s.cross(s.vgg16(128), plan.Axis{baseM}) }

// Fig13 reproduces Figure 13: the maximum DRAM bandwidth utilization of each
// VGG-16 CONV layer's forward and backward kernels under the baseline.
func (s *Suite) Fig13() *report.Table {
	r := s.Prime(s.fig13Jobs())[0]
	t := report.NewTable("Figure 13 — VGG-16 (128) max DRAM bandwidth utilization (GB/s)",
		"layer", "fwd", "bwd", "of peak")
	peak := s.Spec.DRAMBps / 1e9
	var maxBW float64
	for _, ls := range r.Layers {
		if ls.Kind != dnn.Conv && ls.Kind != dnn.FC {
			continue
		}
		f, b := ls.FwdBW/1e9, ls.BwdBW/1e9
		maxBW = max(maxBW, f, b)
		t.AddRow(ls.Name, fmt.Sprintf("%.0f", f), fmt.Sprintf("%.0f", b), report.FmtPct(max(f, b)/peak))
	}
	t.AddNote("peak %.0f GB/s; headroom for the <= 16 GB/s PCIe traffic everywhere (worst case %.0f%%)",
		peak, maxBW/peak*100)
	return t
}

// fig14Cols are Figure 14's simulations per network: the oracle and the
// real run of every static policy/mode column — the oracle gives the
// performance, the real run the asterisk — then vDNN-dyn. The baseline(p)
// oracle (column 10) doubles as the normalization target.
var fig14Cols = func() plan.Axis {
	var cols plan.Axis
	for _, v := range []plan.Variant{allM, allP, convM, convP, baseM, baseP} {
		cols = append(cols, oracle(v), v)
	}
	return append(cols, dynamic)
}()

func (s *Suite) fig14Jobs() []sweep.Job { return s.cross(s.conventional(), fig14Cols) }

// Fig14 reproduces Figure 14: performance normalized to the (oracular)
// baseline for every policy and algorithm mode.
func (s *Suite) Fig14() *report.Table {
	nets := s.conventional()
	t := report.NewTable("Figure 14 — performance normalized to baseline (feature extraction)",
		"network", "all(m)", "all(p)", "conv(m)", "conv(p)", "dyn", "base(m)", "base(p)")
	for i, row := range rows(s.Prime(s.fig14Jobs()), len(fig14Cols)) {
		target := row[10]
		norm := func(col int) string {
			star := ""
			if !row[2*col+1].Trainable {
				star = "*"
			}
			return fmt.Sprintf("%.2f%s", float64(target.FETime)/float64(row[2*col].FETime), star)
		}
		t.AddRow(nets[i].Name, norm(0), norm(1), norm(2), norm(3),
			fmt.Sprintf("%.2f", float64(target.FETime)/float64(row[12].FETime)), norm(4), norm(5))
	}
	t.AddNote("paper: static (m) policies lose ~55-58%%; vDNN-dyn averages ~97%% of baseline (82%% worst case)")
	return t
}

func (s *Suite) fig15Jobs() []sweep.Job {
	return s.cross(s.veryDeep(), plan.Axis{dynamic, baseP, oracle(baseP)})
}

// Fig15 reproduces Figure 15: GPU- and CPU-side memory of vDNN-dyn against
// the baseline's (infeasible) requirement for the very deep networks.
func (s *Suite) Fig15() *report.Table {
	nets := s.veryDeep()
	t := report.NewTable("Figure 15 — very deep networks (batch 32): memory placement (MB)",
		"network", "dyn GPU-side", "dyn CPU-side", "CPU share", "base requirement", "dyn perf vs oracle")
	for i, row := range rows(s.Prime(s.fig15Jobs()), 3) {
		dyn, base, target := row[0], row[1], row[2]
		cpuShare := float64(dyn.HostPinnedPeak) / float64(dyn.HostPinnedPeak+dyn.MaxUsage)
		t.AddRow(nets[i].Name,
			report.FmtMiB(dyn.MaxUsage), report.FmtMiB(dyn.HostPinnedPeak), report.FmtPct(cpuShare),
			report.FmtMiB(base.TotalMaxUsage()),
			fmt.Sprintf("%.2f", float64(target.FETime)/float64(dyn.FETime)))
	}
	t.AddNote("paper: baseline grows 14x to 67.1 GB; vDNN keeps 81-92%% of allocations in host memory")
	return t
}

func (s *Suite) powerJobs() []sweep.Job {
	return s.cross(s.conventional(), plan.Axis{baseP, baseM, dynamic})
}

// Power reproduces the Section V-D study: average and maximum board power of
// vDNN-dyn against the baseline. VGG-16 (256) is excluded as in the paper
// (the baseline cannot run it at all).
func (s *Suite) Power() *report.Table {
	nets := s.conventional()
	t := report.NewTable("Section V-D — GPU power, vDNN-dyn vs baseline (W)",
		"network", "base avg", "dyn avg", "base max", "dyn max", "max overhead")
	for i, row := range rows(s.Prime(s.powerJobs()), 3) {
		base, dyn := row[0], row[2]
		if !base.Trainable {
			base = row[1]
		}
		if !base.Trainable {
			continue // VGG-16 (256): no baseline to compare against
		}
		over := dyn.Power.MaxW/base.Power.MaxW - 1
		t.AddRow(nets[i].Name,
			fmt.Sprintf("%.0f", base.Power.AvgW), fmt.Sprintf("%.0f", dyn.Power.AvgW),
			fmt.Sprintf("%.0f", base.Power.MaxW), fmt.Sprintf("%.0f", dyn.Power.MaxW),
			report.FmtPct(over))
	}
	t.AddNote("paper: 1-7%% maximum power overhead, negligible average change")
	return t
}

// trainRow is a table row: a label, then whether each result trains.
func trainRow(label string, row []*core.Result) []string {
	cells := []string{label}
	for _, r := range row {
		cells = append(cells, yesNo(r.Trainable))
	}
	return cells
}

func yesNo(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

// Short aliases for the allocation categories of Figure 4.
const (
	kindW     = memalloc.KindWeights
	kindWG    = memalloc.KindWeightGrad
	kindFM    = memalloc.KindFeatureMap
	kindGM    = memalloc.KindGradMap
	kindWS    = memalloc.KindWorkspace
	kindOther = memalloc.KindOther
)
