// Package core implements the paper's contribution: the vDNN runtime memory
// manager that virtualizes DNN memory across GPU and CPU memory, together
// with the Torch-style baseline memory manager it is evaluated against.
//
// The executor simulates the host-side issue loop exactly as Section III-B
// describes: a compute stream carries the cuDNN kernels, a memory stream
// carries offload (D2H) and prefetch (H2D) transfers, and the host
// synchronizes the two at layer boundaries when transfers are in flight.
// Memory comes from a cnmem-style pool sized to the GPU's usable capacity;
// OOM during a pass means the configuration cannot train the network
// (the paper's "trainability").
package core

import (
	"context"
	"errors"
	"fmt"

	"vdnn/internal/compress"
	"vdnn/internal/cudnnsim"
	"vdnn/internal/dnn"
	"vdnn/internal/gpu"
	"vdnn/internal/memalloc"
	"vdnn/internal/pcie"
	"vdnn/internal/sim"
)

// Policy selects the memory manager (Section III-C).
type Policy int

const (
	// Baseline is the Torch-style network-wide allocation policy with shared
	// gradient buffers and a single reused workspace.
	Baseline Policy = iota
	// VDNNAll offloads every feature-extraction layer's input feature map.
	VDNNAll
	// VDNNConv offloads only the CONV layers' input feature maps.
	VDNNConv
	// VDNNDyn profiles at startup to pick the offload policy and per-layer
	// algorithms that balance trainability and performance.
	VDNNDyn
)

var policyNames = [...]string{"base", "vDNN-all", "vDNN-conv", "vDNN-dyn"}

func (p Policy) String() string {
	if p >= 0 && int(p) < len(policyNames) {
		return policyNames[p]
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// AlgoMode selects convolution algorithms for the static policies: the
// paper's (m) memory-optimal and (p) performance-optimal variants.
type AlgoMode int

const (
	// MemOptimal uses implicit GEMM everywhere: zero workspace.
	MemOptimal AlgoMode = iota
	// PerfOptimal uses the fastest algorithm per layer, workspace unlimited.
	PerfOptimal
	// GreedyAlgo picks, at each layer during the pass, the fastest algorithm
	// whose workspace fits in currently free pool memory (the dynamic
	// policy's final profiling phase).
	GreedyAlgo
)

var algoModeNames = [...]string{"(m)", "(p)", "(greedy)"}

func (m AlgoMode) String() string {
	if m >= 0 && int(m) < len(algoModeNames) {
		return algoModeNames[m]
	}
	return fmt.Sprintf("AlgoMode(%d)", int(m))
}

// PrefetchMode selects the prefetch scheduling strategy. The default is the
// just-in-time schedule of the paper's Figure 9; the literal Figure 10
// search-window code and two degenerate schedules exist as ablations.
type PrefetchMode int

const (
	// PrefetchJIT is the schedule of the paper's Figure 9: the prefetch of a
	// layer's offloaded X overlaps the backward computation of the layer
	// immediately preceding its first backward use, so it is "guaranteed to
	// be ready before layer(n-1)'s computation" while camping in GPU memory
	// for the least possible time.
	PrefetchJIT PrefetchMode = iota
	// PrefetchFig10 is the literal pseudo-code of the paper's Figure 10:
	// walk backward for the next offloaded layer, stopping at the closest
	// preceding CONV layer. In networks with interleaved ACTV/POOL layers
	// this launches prefetches a few layers earlier than Figure 9's
	// schedule, raising peak memory.
	PrefetchFig10
	// PrefetchNone disables prefetching: offloaded maps are fetched
	// on demand, serializing backward computation (the paper's "naive" case).
	PrefetchNone
	// PrefetchEager removes the CONV-layer window bound entirely,
	// prefetching as early as possible; data camps in GPU memory again (the
	// pitfall Section III-B warns about).
	PrefetchEager
)

func (m PrefetchMode) String() string {
	switch m {
	case PrefetchJIT:
		return "jit"
	case PrefetchFig10:
		return "fig10-window"
	case PrefetchNone:
		return "none"
	case PrefetchEager:
		return "eager"
	}
	return fmt.Sprintf("PrefetchMode(%d)", int(m))
}

// Config selects what to run.
type Config struct {
	Spec   gpu.Spec
	Policy Policy
	Algo   AlgoMode

	// Custom overrides Policy with a user-implemented memory-management
	// policy (see OffloadPolicy). Result caches key custom policies by their
	// Name, so a Name must uniquely identify the policy's decisions. Not
	// serializable: batch/HTTP surfaces address policies by name only.
	Custom OffloadPolicy `json:"-"`

	// Oracle removes the device memory capacity limit: the paper's
	// "hypothetical, oracular GPU with enough memory to hold the entire
	// DNN" used to normalize performance when the baseline cannot train.
	Oracle bool

	Prefetch      PrefetchMode
	PageMigration bool // ablation: page-migration transfers instead of DMA

	// Compression selects the compressed-DMA model (the cDMA follow-up
	// paper): an activation-sparsity-aware codec in the DMA engines shrinks
	// offload transfers and pays a decompression pass on prefetch. The zero
	// value disables it and normalizes to itself, so existing configurations
	// keep their schedules and cache keys byte for byte. The codec lives in
	// the DMA path, so the page-migration ablation (which bypasses the DMA
	// engines) normalizes compression away.
	Compression compress.Config

	// Devices is the number of data-parallel replicas (default 1). Each
	// replica trains the full network on its own minibatch under the same
	// policy and plan; the weight gradients are ring-all-reduced over the
	// interconnect each step. Per-replica and aggregate metrics land in
	// Result.Devices. Mutually exclusive with Stages > 1.
	Devices int

	// Stages splits the network's layer sequence into that many contiguous
	// pipeline stages, one device per stage (inter-layer model parallelism).
	// Micro-batches stream through the stages GPipe-style (fill, steady
	// state, drain); inter-stage activation and gradient transfers cross the
	// Topology's interconnect, contending with each stage's own vDNN
	// offload/prefetch traffic. Default 1: no pipelining, today's exact
	// single-device schedule. Mutually exclusive with Devices > 1 and with
	// OffloadWeights (a stage's weights are live across every in-flight
	// micro-batch).
	Stages int

	// MicroBatches is the number of micro-batches one iteration's minibatch
	// is split into under pipeline parallelism (Config.Stages > 1). More
	// micro-batches shrink the pipeline bubble — the idle fill/drain
	// fraction is (S-1)/(M+S-1) — at the cost of smaller, less efficient
	// transfers. Defaults to Stages; normalized to 1 when Stages == 1.
	MicroBatches int

	// StageCuts places the stage boundaries explicitly: a comma-separated
	// list of layer IDs ("5,9,13"), each starting a new stage, overriding
	// the automatic balanced-by-cost partitioner. Must name Stages-1 valid
	// boundaries when Stages > 1 (every boundary must be crossed by exactly
	// one live feature map); normalized empty when Stages == 1.
	StageCuts string

	// Topology describes how the replicas attach to the host interconnect:
	// the zero value (or pcie.Dedicated()) gives every device its full link,
	// while a shared topology (pcie.SharedGen3Root and friends) arbitrates
	// all replicas' DMA traffic — offload, prefetch and all-reduce — over a
	// root complex with bounded aggregate bandwidth. Multi-device
	// configurations default to the single-uplink pcie.SharedGen3Root();
	// irrelevant (and normalized away) when Devices == 1.
	Topology pcie.Topology

	// Iterations to simulate; the last one (steady state: pinned host
	// buffers already allocated) is measured. Default 2.
	Iterations int

	// HostBytes sizes host DRAM (default 64 GB, the paper's testbed).
	HostBytes int64

	// SkipWeightUpdate drops the SGD update kernels at iteration end
	// (convnet-benchmarks timing protocol). In data-parallel runs it also
	// drops the gradient all-reduce, which exists only to feed the update.
	SkipWeightUpdate bool

	// OffloadWeights extends the vDNN policies to the layer weights, the
	// extension the paper sketches in Section III ("The intuitions of vDNN
	// can also be applied to weights..., but with less of a memory saving
	// benefit"): each feature-extraction layer's weights are offloaded
	// during its forward pass and prefetched back for its backward pass.
	// Ignored by the baseline policy.
	OffloadWeights bool

	// Debug records the live allocation set at the usage peak
	// (Result.DebugPeakLive), for attributing memory spikes.
	Debug bool

	// CaptureSchedule records every operation of the measured iteration
	// (Result.Schedule), enabling timeline inspection and Chrome-trace
	// export — the runnable version of the paper's Figure 9.
	CaptureSchedule bool
}

// WithDefaults returns the configuration with unset fields resolved to their
// defaults. Two configurations that normalize to the same value simulate
// identically, which is what lets result caches (internal/sweep) key on the
// normalized Config directly.
func (c Config) WithDefaults() Config {
	if c.Iterations == 0 {
		c.Iterations = 2
	}
	if c.HostBytes == 0 {
		c.HostBytes = 64 << 30
	}
	if c.Devices <= 0 {
		c.Devices = 1
	}
	if c.Stages <= 0 {
		c.Stages = 1
	}
	if c.Stages == 1 {
		// One stage is no pipeline: micro-batching degenerates to gradient
		// accumulation (out of scope) and cut points are meaningless, so
		// normalize both away — the zero-value Config keeps its schedule and
		// cache key byte for byte.
		c.MicroBatches = 1
		c.StageCuts = ""
	} else if c.MicroBatches <= 0 {
		c.MicroBatches = c.Stages
	}
	if c.Devices == 1 && c.Stages == 1 {
		// A single device never contends with anything: the topology cannot
		// affect the schedule, so normalize it away and let every
		// single-device request share one cache entry.
		c.Topology = pcie.Topology{}
	} else if c.Topology == (pcie.Topology{}) {
		c.Topology = pcie.SharedGen3Root()
	}
	c.Compression = c.Compression.WithDefaults()
	if c.PageMigration {
		// The codec sits inside the DMA engines; demand paging bypasses
		// them, so the combination degenerates to plain page migration.
		c.Compression = compress.Config{}
	}
	return c
}

// validatePipeline checks the pipeline knobs of a normalized Config against
// the network's layer count. Partition feasibility (enough single-crossing
// boundaries, valid explicit cuts) is checked later, when the stage ranges
// are derived.
func (c Config) validatePipeline(layers int) error {
	if c.Stages == 1 {
		return nil
	}
	if c.Stages > maxDevices {
		return fmt.Errorf("core: %d pipeline stages exceeds the device limit of %d", c.Stages, maxDevices)
	}
	if c.Stages > layers {
		return fmt.Errorf("core: %d pipeline stages exceed the network's %d layers", c.Stages, layers)
	}
	if c.Devices > 1 {
		return fmt.Errorf("core: pipeline parallelism (Stages=%d) cannot combine with data parallelism (Devices=%d)", c.Stages, c.Devices)
	}
	if c.OffloadWeights {
		return fmt.Errorf("core: OffloadWeights cannot combine with pipeline parallelism (a stage's weights stay live across every in-flight micro-batch)")
	}
	return nil
}

// LayerStats is the per-layer view of a run, feeding Figures 5, 6 and 13.
type LayerStats struct {
	Name  string
	Kind  dnn.LayerKind
	Stage dnn.Stage

	FwdTime, BwdTime sim.Time
	FwdStart, FwdEnd sim.Time
	BwdStart, BwdEnd sim.Time
	// ReuseDistance is the paper's Figure 6 metric: latency between the end
	// of the layer's forward pass and the start of its backward pass.
	ReuseDistance sim.Time

	FwdBW, BwdBW float64 // max achieved DRAM bandwidth, bytes/sec

	XBytes, YBytes int64
	WeightBytes    int64
	FwdWSBytes     int64
	FwdWorkingSet  int64
	BwdWorkingSet  int64

	AlgoFwd, AlgoBwdData, AlgoBwdFilter cudnnsim.ConvAlgo // CONV layers only

	Offloaded    bool  // this layer triggered an offload of its input X
	OffloadBytes int64 // bytes it offloaded
}

// Result is the outcome of simulating one configuration.
type Result struct {
	Network string
	Batch   int
	// Policy is the Config's Policy enum; it is meaningful only when a
	// built-in policy ran. PolicyName is authoritative either way.
	Policy Policy
	// PolicyName names the policy that produced the result: a built-in
	// Policy.String() or a custom OffloadPolicy's Name().
	PolicyName string
	Algo       AlgoMode
	Oracle     bool
	// Chosen describes the configuration the dynamic policy settled on.
	Chosen string

	Trainable  bool
	FailReason string

	IterTime sim.Time // full training iteration latency
	FETime   sim.Time // feature-extraction portion (paper's performance metric)

	// MaxUsage and AvgUsage are the vDNN memory pool's peak and
	// time-weighted average usage over the measured iteration — the metric
	// of the paper's Figure 11. The pool holds everything the memory manager
	// controls (feature maps, gradient maps, FE weights, workspaces);
	// classifier-side allocations live in FrameworkBytes.
	MaxUsage int64
	AvgUsage int64
	// FrameworkBytes is the static classifier-side memory outside the pool
	// (FC weights/gradients, masks, classifier activations), as in the
	// paper's prototype where classification layers run unmodified Torch.
	FrameworkBytes int64
	// PeakByKind breaks down the network-wide peak (pool peak + framework)
	// by functional category — the paper's Figure 4.
	PeakByKind map[memalloc.Kind]int64

	// MaxWorkingSet is the largest set of bytes any single layer's kernels
	// touch at once — the "maximum layer-wise usage" of Figure 1.
	MaxWorkingSet int64

	// OffloadBytes and PrefetchBytes are the interconnect traffic of the
	// measured iteration: the bytes that actually crossed the wire, i.e.
	// post-codec sizes when Config.Compression is active.
	OffloadBytes    int64 // D2H traffic in the measured iteration
	PrefetchBytes   int64 // H2D traffic in the measured iteration
	OnDemandFetches int   // blocking fetches (0 under the window policy)

	// OffloadRawBytes and PrefetchRawBytes are the pre-codec (logical) sizes
	// of the same transfers; equal to OffloadBytes/PrefetchBytes when
	// compression is disabled or nothing compressed.
	OffloadRawBytes  int64
	PrefetchRawBytes int64
	// CompressionRatio is OffloadRawBytes/OffloadBytes (1 when there is no
	// offload traffic or no compression).
	CompressionRatio float64
	// CompressTime and DecompressTime are the total codec busy time on the
	// D2H and H2D DMA engines in the measured iteration.
	CompressTime   sim.Time
	DecompressTime sim.Time

	HostPinnedPeak int64 // CPU-side allocation (Figure 15)

	Power gpu.PowerStats

	// Energy is the measured iteration's joule breakdown (compute, DMA,
	// codec, idle). Its TotalJ() equals the Power timeline integral —
	// Power.AvgW x the iteration span — by construction. Unlike Power (which
	// for data-parallel runs describes one replica), Energy always aggregates
	// over every device in the run: replicas for data parallelism, stages for
	// pipelines. Per-device breakdowns stay in Devices[i].Energy.
	Energy gpu.EnergyStats

	Layers []LayerStats

	// Schedule is the op-level timeline of the measured iteration
	// (Config.CaptureSchedule). Multi-device runs carry every replica's ops,
	// distinguished by ScheduleOp.Device.
	Schedule []ScheduleOp

	// Devices carries the per-device metrics of a run on more than one
	// device, in device order: replicas under data parallelism
	// (Config.Devices > 1), stages under pipeline parallelism
	// (Config.Stages > 1, device i hosts stage i). Nil for single-device
	// simulations. The per-replica top-level fields — pool usage, PeakByKind,
	// FrameworkBytes, Layers, OnDemandFetches, Power — describe replica 0
	// (replicas are symmetric), merged across its stages; the traffic,
	// energy, host-pinned and inter-stage counters sum over every device.
	Devices []DeviceResult

	// Stages carries the per-stage metrics of a pipeline-parallel run
	// (Config.Stages > 1); nil otherwise. Stage i runs on device i. Merging
	// across stages, the top-level pool/usage fields report the maximum over
	// stages (each stage owns its own pool), FrameworkBytes, PeakByKind and
	// OnDemandFetches sum over the stages, and Power sums the stage devices —
	// AvgW is the exact whole-pipeline average board power (unlike
	// data-parallel runs, whose Power describes one replica), while MaxW sums
	// the stages' individual maxima, an upper bound on the simultaneous node
	// peak. Per-device power stays in Devices[i].Power.
	Stages []StageResult
	// MicroBatches is the pipeline's micro-batch count (1 otherwise).
	MicroBatches int
	// InterStageBytes is the total inter-stage activation + gradient wire
	// traffic of the measured iteration, across all boundaries and
	// micro-batches; InterStageRawBytes is its pre-codec size (gradients
	// always move dense; activations compress under Config.Compression).
	InterStageBytes    int64
	InterStageRawBytes int64
	// BubbleTime sums the stages' exposed compute idle time (see
	// StageResult.BubbleTime); BubbleFraction normalizes it by stages ×
	// iteration span. Zero for non-pipeline runs.
	BubbleTime     sim.Time
	BubbleFraction float64
	// AllReduceBytes is the total gradient-synchronization traffic of the
	// measured iteration, across all replicas and both directions.
	AllReduceBytes int64
	// AllReduceTime is the wall-clock span of the gradient all-reduce phase.
	AllReduceTime sim.Time

	// Debug attribution of the pool usage peak (Config.Debug).
	DebugPeakTime  sim.Time
	DebugPeakLive  map[string]int64
	DebugFreeSpans [][2]int64 // free list at OOM (failed real-capacity run)
}

// ScheduleOp is one scheduled operation of the measured iteration.
type ScheduleOp struct {
	Device int    // replica index (0 for single-device runs)
	Engine string // compute, copyD2H, copyH2D
	Label  string
	Kind   string
	Start  sim.Time
	End    sim.Time
}

// DeviceResult is the per-replica view of a data-parallel run.
type DeviceResult struct {
	Device int

	// StepTime is the replica-local span of the measured iteration: from its
	// first op's start to its last op's end.
	StepTime sim.Time

	ComputeBusy sim.Time // compute-engine busy time in the window
	CopyBusy    sim.Time // both DMA engines' busy time in the window

	OffloadBytes   int64 // D2H feature-map traffic (wire bytes, post-codec)
	PrefetchBytes  int64 // H2D feature-map traffic (wire bytes, post-codec)
	AllReduceBytes int64 // gradient-sync traffic (both directions)

	// OffloadRawBytes is the pre-codec size of the replica's offload
	// traffic; CompressionRatio is OffloadRawBytes/OffloadBytes (1 when no
	// compression). CodecBusy is the replica's total compression plus
	// decompression time on its DMA engines.
	OffloadRawBytes  int64
	CompressionRatio float64
	CodecBusy        sim.Time

	// ContentionStall is the extra transfer time the shared interconnect
	// cost this replica versus dedicated links: the sum over its DMA ops of
	// (actual duration − dedicated-link DMA time). Zero on a dedicated
	// topology. Under page migration the offload and prefetch transfers are
	// demand-paged, not DMA, and are left out; the all-reduce and
	// inter-stage legs still cross the shared root as DMA and count.
	ContentionStall sim.Time

	// OverlapEff is the fraction of the replica's DMA busy time hidden
	// behind its own compute — the paper's Figure 9 overlap, measured. 1.0
	// means every transfer cycle ran under a kernel; 0 means fully exposed.
	OverlapEff float64

	Power gpu.PowerStats

	// Energy is the replica's joule breakdown over its measured window;
	// TotalJ() equals Power.AvgW x that window.
	Energy gpu.EnergyStats
}

// StageResult is the per-stage view of a pipeline-parallel run.
type StageResult struct {
	Stage int
	// FirstLayer/LastLayer are the stage's layer ID range (inclusive).
	FirstLayer, LastLayer int

	// StepTime is the stage's active span in the measured iteration: from
	// its first op's start to its last op's end.
	StepTime sim.Time
	// ComputeBusy is the stage's compute-engine busy time in that window;
	// BubbleTime is the exposed remainder (StepTime − ComputeBusy): time the
	// stage's device sat idle waiting for micro-batches, gradients, or
	// transfers — the pipeline bubble, measured rather than modeled.
	ComputeBusy sim.Time
	BubbleTime  sim.Time

	// SendBytes/RecvBytes are the stage's inter-stage wire traffic:
	// activations forwarded to the next stage plus gradients returned to the
	// previous one. Conservation holds per boundary: stage s's sends to s+1
	// equal stage s+1's receives from s.
	SendBytes, RecvBytes int64
	// OffloadBytes/PrefetchBytes are the stage's own vDNN host-transfer wire
	// traffic.
	OffloadBytes, PrefetchBytes int64

	// PoolPeak is the stage's vDNN memory-pool peak usage.
	PoolPeak int64
}

// AllocFailure is the error returned when a configuration runs out of pool
// memory; it carries the free-list snapshot for diagnosis.
type AllocFailure struct {
	Label     string
	Err       error
	FreeSpans [][2]int64
}

func (a *AllocFailure) Error() string { return fmt.Sprintf("allocating %s: %v", a.Label, a.Err) }

// Unwrap exposes the underlying allocator error.
func (a *AllocFailure) Unwrap() error { return a.Err }

// UsageMiB is a display helper: max and average usage in MiB.
func (r *Result) UsageMiB() (max, avg float64) {
	return float64(r.MaxUsage) / (1 << 20), float64(r.AvgUsage) / (1 << 20)
}

// TotalMaxUsage is the network-wide peak: pool peak plus the framework-side
// classifier memory (the accounting of Figures 1 and 4).
func (r *Result) TotalMaxUsage() int64 { return r.MaxUsage + r.FrameworkBytes }

// Run simulates one configuration of one network. The configured policy
// (built-in Policy enum or a Custom OffloadPolicy) drives the plan; a policy
// implementing Profiler — the dynamic policy, or a custom profiling policy —
// is handed control of the whole run instead. A configuration that cannot
// train (OOM) is re-simulated on an oracle-sized pool so its hypothetical
// memory demand can still be reported (the starred bars of Figure 11);
// Trainable is false in that case.
func Run(net *dnn.Network, cfg Config) (*Result, error) {
	return RunContext(context.Background(), net, cfg)
}

// RunContext is Run under a context: the simulation checks ctx at every
// layer boundary and aborts with an error wrapping both ErrCanceled and the
// context's cause. A nil ctx behaves like context.Background(). Cancellation
// reaches every grid shape — single-device, data-parallel, pipeline — and
// the dynamic policy's profiling candidates.
func RunContext(ctx context.Context, net *dnn.Network, cfg Config) (*Result, error) {
	return RunContextWith(ctx, net, cfg, nil)
}

// RunContextWith is RunContext with the profiling candidates delegated: when
// the configuration resolves to a profiling policy and runSub is non-nil,
// every candidate simulation is routed through runSub instead of being
// executed inline. runSub receives the normalized candidate Config and must
// return exactly what runStatic would — which is what lets a result cache
// (internal/sweep) serve profiling candidates from, and into, the shared
// cache. Results runSub serves may be shared: the profiler's mutations are
// applied to a clone. Static (non-profiling) configurations ignore runSub.
func RunContextWith(ctx context.Context, net *dnn.Network, cfg Config, runSub Simulate) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if ctx.Err() != nil {
		return nil, canceled(ctx)
	}
	cfg = cfg.WithDefaults()
	pol, err := validateConfig(net, cfg)
	if err != nil {
		return nil, err
	}
	if prof, ok := pol.(Profiler); ok {
		return prof.Profile(net, cfg, profileSimulateWith(ctx, net, runSub))
	}
	return runStatic(ctx, net, cfg, pol)
}

// validateConfig runs the full validation chain on a normalized
// configuration and resolves its policy implementation.
func validateConfig(net *dnn.Network, cfg Config) (OffloadPolicy, error) {
	if err := cfg.Spec.Validate(); err != nil {
		return nil, err
	}
	if cfg.Devices > maxDevices {
		return nil, fmt.Errorf("core: %d devices exceeds the limit of %d", cfg.Devices, maxDevices)
	}
	if err := cfg.validatePipeline(len(net.Layers)); err != nil {
		return nil, err
	}
	if err := cfg.Topology.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Compression.Validate(); err != nil {
		return nil, err
	}
	if err := net.Validate(); err != nil {
		return nil, err
	}
	return cfg.policyImpl()
}

// runStatic simulates one non-profiling configuration, falling back to an
// oracular rerun to report the hypothetical demand when it cannot train.
func runStatic(ctx context.Context, net *dnn.Network, cfg Config, pol OffloadPolicy) (*Result, error) {
	plan, err := buildPlan(net, cfg, pol)
	if err != nil {
		return nil, err
	}
	res, runErr := execute(ctx, net, cfg, pol, plan)
	if runErr == nil {
		return res, nil
	}
	if errors.Is(runErr, ErrCanceled) {
		// Aborted, not untrainable: the oracle rerun would burn a second full
		// simulation on a request nobody is waiting for.
		return nil, runErr
	}
	// OOM: report the hypothetical demand on an oracular device.
	oracleCfg := cfg
	oracleCfg.Oracle = true
	res, err = execute(ctx, net, oracleCfg, pol, plan)
	if err != nil {
		return nil, fmt.Errorf("core: oracle rerun failed: %w", err)
	}
	return untrainable(res, cfg, runErr), nil
}

// untrainable is the report of a configuration that failed at its real
// capacity with runErr: a copy of the oracle-capacity run's Result (the
// hypothetical demand) carrying cfg's Oracle flag, Trainable=false, the
// failure text, and — under Debug — the free list at the failed allocation.
func untrainable(oracle *Result, cfg Config, runErr error) *Result {
	r := *oracle
	r.Oracle = cfg.Oracle
	r.Trainable = false
	r.FailReason = runErr.Error()
	if cfg.Debug {
		var af *AllocFailure
		if errors.As(runErr, &af) {
			r.DebugFreeSpans = af.FreeSpans
		}
	}
	return &r
}

// profileSimulate builds the Simulate callback handed to a profiling policy:
// one static candidate per call, (nil, nil) when the candidate cannot train.
// An execution failure on an oracle-sized pool is never plain memory
// oversubscription, so it propagates with its cause instead of reading as
// "untrainable" — profilers lean on oracle runs for their fallback
// diagnostics. The caller's context is bound into the callback, so a
// canceled request aborts every profiling candidate too (a canceled
// candidate propagates its error instead of reading as "untrainable").
func profileSimulate(ctx context.Context, net *dnn.Network) Simulate {
	return profileSimulateWith(ctx, net, nil)
}

// profileSimulateWith is profileSimulate with the candidate execution
// optionally delegated to runSub (a runStatic-equivalent callback, usually a
// cache front). The Simulate contract is translated either way: an
// untrainable candidate reads as (nil, nil), and results served by runSub are
// cloned before the profiler mutates them (they may be cache-shared).
func profileSimulateWith(ctx context.Context, net *dnn.Network, runSub Simulate) Simulate {
	return func(sub Config) (*Result, error) {
		if ctx.Err() != nil {
			return nil, canceled(ctx)
		}
		sub = sub.WithDefaults()
		pol, err := sub.policyImpl()
		if err != nil {
			return nil, err
		}
		if _, ok := pol.(Profiler); ok {
			return nil, fmt.Errorf("core: profiling policy %q cannot simulate another profiling policy", pol.Name())
		}
		if runSub != nil {
			res, err := runSub(sub)
			if err != nil {
				return nil, err
			}
			if !res.Trainable {
				return nil, nil // untrainable under this candidate
			}
			r := *res
			return &r, nil
		}
		plan, err := buildPlan(net, sub, pol)
		if err != nil {
			return nil, err
		}
		res, runErr := execute(ctx, net, sub, pol, plan)
		if runErr != nil {
			if errors.Is(runErr, ErrCanceled) {
				return nil, runErr
			}
			if sub.Oracle {
				return nil, fmt.Errorf("core: oracle candidate failed: %w", runErr)
			}
			return nil, nil // untrainable under this candidate
		}
		return res, nil
	}
}
