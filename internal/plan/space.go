// Package plan implements the auto-parallelism planner: a pruned
// design-space search that, given a workload (network name, global batch
// size) and a fleet description (GPU model, device-count budget, topology,
// per-device memory cap), finds the trainable configuration minimizing the
// requested objective — step time by default, or whole-fleet energy per
// iteration — across data parallelism, pipeline parallelism, the vDNN
// offload policies, convolution algorithm modes and the compressed-DMA
// codecs.
//
// Candidates execute through the caller-supplied batch runner — in practice
// vdnn.Simulator.RunBatch — so every evaluation lands in the shared result
// cache, coalesces with concurrent identical requests, cancels with the
// caller's context and is reachable by the chaos harness like any other
// simulation.
//
// The search is smarter than exhaustive (see Search), but the *space* it
// searches is a plain deterministic enumeration (Request.Candidates), which
// is what the optimality tests sweep exhaustively to check the pruning
// logic never discards a winner.
package plan

import (
	"fmt"

	"vdnn/internal/compress"
	"vdnn/internal/core"
	"vdnn/internal/dnn"
	"vdnn/internal/gpu"
	"vdnn/internal/pcie"
	"vdnn/internal/sweep"
)

// ---------------------------------------------------------------------------
// Sweep-axis enumeration, shared with cmd/vdnn-explore.
//
// A sweep dimension is an Axis: an ordered list of labeled Config
// mutations. Cross enumerates the cartesian product of axes over a base
// configuration — the one config-generation loop behind both the planner's
// per-point candidate batteries and vdnn-explore's what-if sweeps.

// Variant is one value of a sweep Axis: a display label plus the Config
// mutation selecting it.
type Variant struct {
	Label string
	Apply func(core.Config) core.Config
}

// Axis is one sweep dimension: its values in presentation order.
type Axis []Variant

// Cross enumerates base across the axes' cartesian product in row-major
// order: the first axis varies slowest, the last fastest. With axes
// {A, B} the result is A0B0, A0B1, ..., A1B0, ... — so a table with one row
// per A-value and one column per B-value indexes results as [i*len(B)+j].
func Cross(base core.Config, axes ...Axis) []core.Config {
	cfgs := []core.Config{base}
	for _, axis := range axes {
		next := make([]core.Config, 0, len(cfgs)*len(axis))
		for _, cfg := range cfgs {
			for _, v := range axis {
				next = append(next, v.Apply(cfg))
			}
		}
		cfgs = next
	}
	return cfgs
}

// CrossJobs pairs every network with every configuration of
// Cross(base, axes...), network-major: job i*len(cfgs)+j runs nets[i] under
// the j-th configuration, so a table with one row per network reads its row
// as one contiguous slice of the batch's results.
func CrossJobs(nets []*dnn.Network, base core.Config, axes ...Axis) []sweep.Job {
	cfgs := Cross(base, axes...)
	jobs := make([]sweep.Job, 0, len(nets)*len(cfgs))
	for _, n := range nets {
		for _, c := range cfgs {
			jobs = append(jobs, sweep.Job{Net: n, Cfg: c})
		}
	}
	return jobs
}

// PolicyVariant selects a memory-management policy and algorithm mode.
func PolicyVariant(p core.Policy, a core.AlgoMode) Variant {
	return Variant{Label: PolicyLabel(p, a), Apply: func(c core.Config) core.Config {
		c.Policy, c.Algo = p, a
		return c
	}}
}

// CapacityVariant resizes the device's physical memory.
func CapacityVariant(bytes int64) Variant {
	return Variant{Label: fmt.Sprintf("%dGB", bytes>>30), Apply: func(c core.Config) core.Config {
		c.Spec = c.Spec.WithMemory(bytes)
		return c
	}}
}

// LinkVariant attaches the device to the host over link.
func LinkVariant(link pcie.Link) Variant {
	return Variant{Label: link.Name, Apply: func(c core.Config) core.Config {
		c.Spec.Link = link
		return c
	}}
}

// PrefetchVariant selects a prefetch schedule.
func PrefetchVariant(m core.PrefetchMode) Variant {
	return Variant{Label: m.String(), Apply: func(c core.Config) core.Config {
		c.Prefetch = m
		return c
	}}
}

// CodecVariant selects a compressed-DMA codec and sparsity profile.
func CodecVariant(codec compress.Codec, sparsity string) Variant {
	return Variant{Label: codecLabel(compress.Config{Codec: codec, Sparsity: sparsity}),
		Apply: func(c core.Config) core.Config {
			c.Compression = compress.Config{Codec: codec, Sparsity: sparsity}
			return c
		}}
}

// DevicesVariant selects a data-parallel replica count on a topology.
func DevicesVariant(devices int, top pcie.Topology) Variant {
	return Variant{Label: fmt.Sprintf("%dx", devices), Apply: func(c core.Config) core.Config {
		c.Devices, c.Topology = devices, top
		return c
	}}
}

// PipelineVariant selects a pipeline shape on a topology (stages == 1 is
// the single-device reference; microBatches 0 takes the default).
func PipelineVariant(stages, microBatches int, top pcie.Topology) Variant {
	label := fmt.Sprintf("%ds", stages)
	if microBatches > 0 {
		label = fmt.Sprintf("%dsxM%d", stages, microBatches)
	}
	return Variant{Label: label, Apply: func(c core.Config) core.Config {
		c.Stages, c.MicroBatches = stages, microBatches
		if stages > 1 {
			c.Topology = top
		}
		return c
	}}
}

// PolicyLabel renders the paper's shorthand for a policy/mode pair:
// "base(p)", "all(m)", "dyn".
func PolicyLabel(p core.Policy, a core.AlgoMode) string {
	switch p {
	case core.Baseline:
		return "base" + a.String()
	case core.VDNNAll:
		return "all" + a.String()
	case core.VDNNConv:
		return "conv" + a.String()
	case core.VDNNDyn:
		return "dyn"
	}
	return p.String() + a.String()
}

func codecLabel(c compress.Config) string {
	if c.Codec == compress.CodecNone {
		return "none"
	}
	return c.WithDefaults().Codec.String() + ":" + c.WithDefaults().Sparsity
}

// ---------------------------------------------------------------------------
// The planner's candidate space.

// Request describes one planning problem: the workload, the fleet and the
// memory cap the winner must respect.
type Request struct {
	// Network is the benchmark network name (see networks.Names).
	Network string
	// Batch is the global batch size of one training step. Data-parallel
	// candidates split it evenly across replicas; pipeline candidates
	// stream it through the stages as micro-batches.
	Batch int

	// Spec is the fleet's GPU model (the zero value selects the paper's
	// Titan X). MemCapBytes, when set, overrides its physical memory — the
	// hard per-device cap every returned configuration must train under.
	Spec        gpu.Spec
	MemCapBytes int64

	// MaxDevices is the device-count budget (default 4, max 16): the
	// search considers data-parallel replica counts and pipeline stage
	// counts up to it.
	MaxDevices int

	// Topology is the interconnect of multi-device candidates (the zero
	// value defaults to the shared gen3 x16 root complex, the worst case).
	Topology pcie.Topology

	// Codecs are the compressed-DMA settings to search (default: no codec,
	// plus ZVC on the cDMA sparsity profile). A codec-free branch is always
	// searched.
	Codecs []compress.Config

	// Objective selects what the search minimizes: step time (the zero
	// value, the historical behavior) or whole-fleet energy per iteration
	// (see Objective). The candidate space and the pruning waves are
	// identical either way — only the final comparison changes — so an
	// unset objective plans exactly as before.
	Objective Objective
}

// MaxBudget is the largest MaxDevices a Request may ask for.
const MaxBudget = 16

// DefaultMaxDevices is the device budget when the request leaves it unset.
const DefaultMaxDevices = 4

// withDefaults resolves unset fields; validate reports the first invalid one.
func (r Request) withDefaults() Request {
	if r.Spec == (gpu.Spec{}) {
		r.Spec = gpu.TitanX()
	}
	if r.MemCapBytes > 0 {
		r.Spec = r.Spec.WithMemory(r.MemCapBytes)
	}
	if r.MaxDevices == 0 {
		r.MaxDevices = DefaultMaxDevices
	}
	if r.Topology == (pcie.Topology{}) {
		r.Topology = pcie.SharedGen3Root()
	}
	// Normalize the codec list: the codec-free branch always exists and
	// always comes first (it anchors the domination probe and the tie-break
	// order); duplicates collapse. An empty request searches ZVC on its
	// default sparsity profile alongside the codec-free branch.
	requested := r.Codecs
	if len(requested) == 0 {
		requested = []compress.Config{{Codec: compress.CodecZVC}}
	}
	codecs := []compress.Config{{}}
	seen := map[compress.Config]bool{{}: true}
	for _, c := range requested {
		c = c.WithDefaults()
		if !seen[c] {
			seen[c] = true
			codecs = append(codecs, c)
		}
	}
	r.Codecs = codecs
	return r
}

func (r Request) validate() error {
	if r.Network == "" {
		return fmt.Errorf("plan: request needs a network name")
	}
	if r.Batch <= 0 {
		return fmt.Errorf("plan: batch must be positive, got %d", r.Batch)
	}
	if r.MaxDevices < 1 || r.MaxDevices > MaxBudget {
		return fmt.Errorf("plan: max devices must be in [1, %d], got %d", MaxBudget, r.MaxDevices)
	}
	if r.MemCapBytes < 0 {
		return fmt.Errorf("plan: memory cap must be non-negative, got %d", r.MemCapBytes)
	}
	for _, c := range r.Codecs {
		if err := c.Validate(); err != nil {
			return fmt.Errorf("plan: %w", err)
		}
	}
	return r.Spec.Validate()
}

// modePoint is one parallelism shape: how the global batch maps onto
// devices. Exactly one of devices > 1 or stages > 1 holds (both 1 is the
// single-device point).
type modePoint struct {
	devices, stages, micro int
}

func (m modePoint) String() string {
	switch {
	case m.stages > 1:
		return fmt.Sprintf("pipe %dxM%d", m.stages, m.micro)
	case m.devices > 1:
		return fmt.Sprintf("dp %dx", m.devices)
	}
	return "single"
}

// modePoints enumerates the coarse parallelism grid, in evidence order:
// the single device, data-parallel replica counts (powers of two dividing
// the batch, up to the budget), then pipeline shapes (power-of-two stage
// counts up to the budget, micro-batch counts s, 2s and 4s that divide the
// batch). Equal-size splits only: a count that does not divide the batch is
// not a candidate.
func (r Request) modePoints() []modePoint {
	points := []modePoint{{devices: 1, stages: 1}}
	for d := 2; d <= r.MaxDevices; d *= 2 {
		if r.Batch%d == 0 {
			points = append(points, modePoint{devices: d, stages: 1})
		}
	}
	for s := 2; s <= r.MaxDevices; s *= 2 {
		for _, m := range []int{s, 2 * s, 4 * s} {
			if m <= r.Batch && r.Batch%m == 0 {
				points = append(points, modePoint{devices: 1, stages: s, micro: m})
			}
		}
	}
	return points
}

// battery is the per-point policy/algorithm order. The first two entries
// are the search's probes: base(p) — the fastest possible configuration at
// a point when it trains, which time-dominates every offload policy there —
// and all(m), the point's memory floor, whose failure proves every sibling
// untrainable. Performance-optimal rows precede their memory-optimal
// siblings: (m) is never faster than (p) at the same policy, so when (p)
// trains, (m) can be pruned — and because (m) sits later in the order, the
// tie-break agrees. The dynamic policy closes the list (pipeline points
// skip it: dyn profiles a whole-network schedule, which the per-stage
// planner does not model).
var battery = []struct {
	p core.Policy
	a core.AlgoMode
}{
	{core.Baseline, core.PerfOptimal},
	{core.VDNNAll, core.MemOptimal},
	{core.VDNNAll, core.PerfOptimal},
	{core.VDNNConv, core.PerfOptimal},
	{core.VDNNConv, core.MemOptimal},
	{core.Baseline, core.MemOptimal},
	{core.VDNNDyn, 0},
}

// Candidate is one point of the design space.
type Candidate struct {
	// Index is the candidate's position in the deterministic space
	// enumeration; refined candidates are appended after the space.
	Index int `json:"index"`

	Devices      int `json:"devices"`                 // data-parallel replicas (1 otherwise)
	Stages       int `json:"stages"`                  // pipeline stages (1 otherwise)
	MicroBatches int `json:"micro_batches,omitempty"` // pipeline micro-batches (0 otherwise)
	// PerDevBatch is the minibatch one replica trains (Batch/Devices).
	PerDevBatch int `json:"per_device_batch"`

	Policy core.Policy     `json:"policy"`
	Algo   core.AlgoMode   `json:"algo"`
	Comp   compress.Config `json:"compression,omitempty"`

	// Refined marks a neighborhood-refinement candidate from outside the
	// coarse space enumeration.
	Refined bool `json:"refined,omitempty"`
}

// Mode renders the candidate's parallelism shape ("single", "dp 4x",
// "pipe 4xM16").
func (c Candidate) Mode() string {
	return modePoint{devices: c.Devices, stages: c.Stages, micro: c.MicroBatches}.String()
}

// PolicyLabel renders the candidate's policy/mode shorthand.
func (c Candidate) PolicyLabel() string { return PolicyLabel(c.Policy, c.Algo) }

// CodecLabel renders the candidate's compression setting.
func (c Candidate) CodecLabel() string { return codecLabel(c.Comp) }

// Config materializes the candidate against a fleet spec and topology.
func (c Candidate) Config(spec gpu.Spec, top pcie.Topology) core.Config {
	cfg := core.Config{
		Spec:        spec,
		Policy:      c.Policy,
		Algo:        c.Algo,
		Compression: c.Comp,
	}
	switch {
	case c.Stages > 1:
		cfg.Stages, cfg.MicroBatches, cfg.Topology = c.Stages, c.MicroBatches, top
	case c.Devices > 1:
		cfg.Devices, cfg.Topology = c.Devices, top
	}
	return cfg
}

// Candidates enumerates the full coarse design space in deterministic
// order: mode points (see modePoints), then the policy battery, then the
// codec branch — so ties in step time always resolve to the simplest
// configuration (fewest devices, no offload machinery, no codec). This is
// the exact set the optimality tests sweep exhaustively.
func (r Request) Candidates() []Candidate {
	req := r.withDefaults()
	var out []Candidate
	for _, pt := range req.modePoints() {
		for _, pa := range battery {
			if pa.p == core.VDNNDyn && pt.stages > 1 {
				continue
			}
			for _, codec := range req.Codecs {
				out = append(out, Candidate{
					Index:        len(out),
					Devices:      pt.devices,
					Stages:       pt.stages,
					MicroBatches: pt.micro,
					PerDevBatch:  req.Batch / pt.devices,
					Policy:       pa.p,
					Algo:         pa.a,
					Comp:         codec,
				})
			}
		}
	}
	return out
}
