// Package serve implements the vdnn-serve HTTP daemon: a JSON API that
// serves simulations from a shared vdnn.Simulator. Every request is answered
// from the simulator's deduplicated result cache — repeated and concurrent
// identical requests cost one simulation — and networks are memoized by
// (name, batch) so cache keys stay stable across requests.
//
// Endpoints:
//
//	POST   /v1/simulate   one configuration        -> SimResponse
//	POST   /v1/sweep      {"jobs": [...]} batch    -> SweepResponse
//	POST   /v1/jobs       the same sweep, async    -> 202 JobAccepted
//	GET    /v1/jobs       retained job summaries   -> {"jobs": [...]}
//	GET    /v1/jobs/{id}  NDJSON point stream      -> JobEvent* JobSummary
//	DELETE /v1/jobs/{id}  cancel                   -> JobSummary
//	POST   /v1/plan       design-space search      -> PlanResponse
//	GET    /v1/networks   model/device/link names  -> CatalogResponse
//	GET    /v1/catalog    same body: the full hardware catalog, including
//	                      structured backend entries (memory kind, link class)
//	GET    /v1/stats      cache + store + serve + job counters
//	GET    /metrics       Prometheus text exposition
//	GET    /healthz       liveness                 -> "ok"
//	GET    /readyz        readiness (503 draining) -> "ready"
//
// A sweep is a job: both sweep routes run it through one function, inline
// for /v1/sweep and in the background for /v1/jobs (see jobs.go).
// Simulation requests and async jobs alike pass through admission control
// (bounded queue, 503 + Retry-After when full) and run under a per-request
// deadline (server default, or the body's deadline_ms clamped to the server
// maximum).
// Errors are JSON bodies {"error": "...", "code": "..."} with a 4xx/5xx
// status; the taxonomy is documented in robustness.go.
package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"vdnn"
	"vdnn/internal/metrics"
)

// SimRequest is the wire form of one simulation. GPUs and links are
// addressed by registry name (see vdnn.GPUNames / vdnn.LinkNames plus any
// simulator-scoped entries); enums use their text tokens ("vdnn-dyn", "p",
// "jit"). Zero fields take the documented defaults.
type SimRequest struct {
	// Network is a benchmark network name (see GET /v1/networks). Required.
	Network string `json:"network"`
	// Batch is the minibatch size. Default 64.
	Batch int `json:"batch,omitempty"`

	// GPU names the simulated device. Default "titanx".
	GPU string `json:"gpu,omitempty"`
	// GPUMemGB overrides the device's physical memory, in GiB.
	GPUMemGB float64 `json:"gpu_mem_gb,omitempty"`
	// Link overrides the device's host interconnect by registry name.
	Link string `json:"link,omitempty"`

	// Policy selects the memory manager. Default "vdnn-dyn". Policy and Algo
	// always marshal: their zero values ("base", "m") are not the defaults,
	// so an omitted field would replay as a different configuration.
	Policy vdnn.Policy `json:"policy"`
	// Algo selects the convolution algorithm mode. Default "p" unless the
	// policy is the dynamic one (which profiles its own).
	Algo vdnn.AlgoMode `json:"algo"`
	// Prefetch selects the prefetch schedule. Default "jit".
	Prefetch vdnn.PrefetchMode `json:"prefetch,omitempty"`

	Oracle         bool `json:"oracle,omitempty"`
	PageMigration  bool `json:"page_migration,omitempty"`
	OffloadWeights bool `json:"offload_weights,omitempty"`
	// HostGB sizes host DRAM in GiB (default 64, the paper's testbed).
	HostGB float64 `json:"host_gb,omitempty"`

	// Codec enables the compressing DMA engine ("none", "zvc", "rle";
	// default none): offload transfers shrink with activation sparsity and
	// prefetches pay a decompression pass.
	Codec vdnn.Codec `json:"codec,omitempty"`
	// Sparsity names the activation-sparsity profile the codec assumes
	// ("cdma", "flat50", "dense"; default cdma when a codec is active).
	Sparsity string `json:"sparsity,omitempty"`

	// Devices is the number of data-parallel replicas (default 1). Replicas
	// share the interconnect described by Topology and all-reduce their
	// weight gradients each step. Mutually exclusive with stages > 1.
	Devices int `json:"devices,omitempty"`
	// Stages splits the network into that many contiguous pipeline stages,
	// one device per stage, with micro-batches streamed through them
	// (default 1: no pipelining).
	Stages int `json:"stages,omitempty"`
	// MicroBatches is the micro-batch count of a pipeline run (default:
	// stages).
	MicroBatches int `json:"micro_batches,omitempty"`
	// StageCuts places the pipeline stage boundaries explicitly: a
	// comma-separated list of layer IDs ("7,13,20"); empty uses the
	// balanced-by-cost partitioner.
	StageCuts string `json:"stage_cuts,omitempty"`
	// Topology names the interconnect topology for multi-device and
	// pipeline runs ("dedicated", "shared-x16", "shared-2x16",
	// "shared-4x16"; default shared-x16 when devices or stages > 1).
	Topology string `json:"topology,omitempty"`

	// Trace requests the op-level schedule of the measured iteration: the
	// response's trace field carries Chrome trace-event JSON inline (open in
	// chrome://tracing or ui.perfetto.dev). Not allowed inside sweeps.
	Trace bool `json:"trace,omitempty"`

	// DeadlineMS bounds this request's wall-clock time in milliseconds; the
	// server clamps it to its configured maximum and answers 408 when it
	// fires. Zero uses the server default. Inside a sweep, set it on the
	// sweep body (it covers the whole batch), not on individual jobs.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
}

// SimResponse is the wire form of a simulation result.
type SimResponse struct {
	Network  string            `json:"network"`
	Batch    int               `json:"batch"`
	GPU      string            `json:"gpu"`
	Policy   vdnn.Policy       `json:"policy"`
	Algo     vdnn.AlgoMode     `json:"algo"`
	Prefetch vdnn.PrefetchMode `json:"prefetch"`
	Chosen   string            `json:"chosen,omitempty"`

	Trainable  bool   `json:"trainable"`
	FailReason string `json:"fail_reason,omitempty"`

	IterTimeMs float64 `json:"iter_time_ms"`
	FETimeMs   float64 `json:"fe_time_ms"`

	MaxUsageBytes      int64 `json:"max_usage_bytes"`
	AvgUsageBytes      int64 `json:"avg_usage_bytes"`
	FrameworkBytes     int64 `json:"framework_bytes"`
	MaxWorkingSetBytes int64 `json:"max_working_set_bytes"`

	OffloadBytes        int64 `json:"offload_bytes"`
	PrefetchBytes       int64 `json:"prefetch_bytes"`
	OnDemandFetches     int   `json:"on_demand_fetches"`
	HostPinnedPeakBytes int64 `json:"host_pinned_peak_bytes"`

	// Compressed-DMA results (codec set in the request). Offload/prefetch
	// bytes above are wire (post-codec) traffic; the raw fields carry the
	// pre-codec sizes.
	Codec            string  `json:"codec,omitempty"`
	SparsityProfile  string  `json:"sparsity_profile,omitempty"`
	OffloadRawBytes  int64   `json:"offload_raw_bytes,omitempty"`
	PrefetchRawBytes int64   `json:"prefetch_raw_bytes,omitempty"`
	CompressionRatio float64 `json:"compression_ratio,omitempty"`
	CompressTimeMs   float64 `json:"compress_time_ms,omitempty"`
	DecompressTimeMs float64 `json:"decompress_time_ms,omitempty"`

	AvgPowerW float64 `json:"avg_power_w"`
	MaxPowerW float64 `json:"max_power_w"`

	// Energy breakdown of the measured iteration, in joules, summed over
	// every device of the run. The buckets add up to energy_j, which equals
	// the power timeline's integral.
	EnergyJ        float64 `json:"energy_j"`
	ComputeEnergyJ float64 `json:"compute_energy_j"`
	DMAEnergyJ     float64 `json:"dma_energy_j"`
	CodecEnergyJ   float64 `json:"codec_energy_j,omitempty"`
	IdleEnergyJ    float64 `json:"idle_energy_j"`

	// Multi-device results (devices > 1 in the request).
	Devices         int              `json:"devices,omitempty"`
	Topology        string           `json:"topology,omitempty"`
	AllReduceBytes  int64            `json:"allreduce_bytes,omitempty"`
	AllReduceTimeMs float64          `json:"allreduce_time_ms,omitempty"`
	PerDevice       []DeviceResponse `json:"per_device,omitempty"`

	// Pipeline results (stages > 1 in the request).
	Stages             int             `json:"stages,omitempty"`
	MicroBatches       int             `json:"micro_batches,omitempty"`
	InterStageBytes    int64           `json:"inter_stage_bytes,omitempty"`
	InterStageRawBytes int64           `json:"inter_stage_raw_bytes,omitempty"`
	BubbleTimeMs       float64         `json:"bubble_time_ms,omitempty"`
	BubbleFraction     float64         `json:"bubble_fraction,omitempty"`
	StageImbalance     float64         `json:"stage_imbalance,omitempty"`
	PerStage           []StageResponse `json:"per_stage,omitempty"`

	// Trace is the inline Chrome trace-event JSON ("trace": true requests).
	Trace json.RawMessage `json:"trace,omitempty"`
}

// DeviceResponse is the wire form of one replica's metrics.
type DeviceResponse struct {
	Device         int     `json:"device"`
	StepTimeMs     float64 `json:"step_time_ms"`
	OffloadBytes   int64   `json:"offload_bytes"`
	PrefetchBytes  int64   `json:"prefetch_bytes"`
	AllReduceBytes int64   `json:"allreduce_bytes"`
	ContentionMs   float64 `json:"contention_stall_ms"`
	OverlapEff     float64 `json:"overlap_efficiency"`
	ComputeBusyMs  float64 `json:"compute_busy_ms"`
	CopyBusyMs     float64 `json:"copy_busy_ms"`
	EnergyJ        float64 `json:"energy_j"`
}

// StageResponse is the wire form of one pipeline stage's metrics.
type StageResponse struct {
	Stage         int     `json:"stage"`
	FirstLayer    int     `json:"first_layer"`
	LastLayer     int     `json:"last_layer"`
	StepTimeMs    float64 `json:"step_time_ms"`
	ComputeBusyMs float64 `json:"compute_busy_ms"`
	BubbleTimeMs  float64 `json:"bubble_time_ms"`
	SendBytes     int64   `json:"send_bytes"`
	RecvBytes     int64   `json:"recv_bytes"`
	OffloadBytes  int64   `json:"offload_bytes"`
	PrefetchBytes int64   `json:"prefetch_bytes"`
	PoolPeakBytes int64   `json:"pool_peak_bytes"`
}

// StatsResponse is the GET /v1/stats body: the simulator's cache counters,
// the HTTP layer's admission counters, and the planner's cumulative search
// counters (how much of its design spaces the daemon evaluated vs pruned).
type StatsResponse struct {
	vdnn.EngineStats
	Serve   ServeStats        `json:"serve"`
	Planner vdnn.PlanCounters `json:"planner"`
	// Jobs counts the async job subsystem (POST /v1/jobs).
	Jobs JobStats `json:"jobs"`
	// Store counts the persistent result store; absent when the daemon runs
	// without one.
	Store *vdnn.StoreStats `json:"store,omitempty"`
}

// SweepResponse carries one result per job, in job order.
type SweepResponse struct {
	Results []SimResponse `json:"results"`
}

// CatalogResponse lists everything a request can name. Backends carries the
// structured hardware catalog behind the flat gpus name list (same names,
// same order).
type CatalogResponse struct {
	Networks         []string      `json:"networks"`
	GPUs             []string      `json:"gpus"`
	Backends         []BackendInfo `json:"backends"`
	Links            []string      `json:"links"`
	Topologies       []string      `json:"topologies"`
	Codecs           []string      `json:"codecs"`
	SparsityProfiles []string      `json:"sparsity_profiles"`
}

// BackendInfo is one accelerator backend of the hardware catalog, as the
// simulator this server answers from resolves it (process-wide registry
// plus any per-simulator overlays).
type BackendInfo struct {
	// Name is the registry token requests use in their gpu field.
	Name string `json:"name"`
	// Device is the backend's display name ("NVIDIA Titan X (Maxwell)").
	Device string `json:"device"`
	// Memory is the device memory technology ("gddr", "hbm", "near-dram").
	Memory string `json:"memory"`
	// MemGB is the physical device memory in GiB.
	MemGB float64 `json:"mem_gb"`
	// PeakTFLOPS is the single-precision compute peak.
	PeakTFLOPS float64 `json:"peak_tflops"`
	// LinkClass is the host interconnect family ("pcie", "nvlink", "on-die").
	LinkClass string `json:"link_class"`
	// Link is the host interconnect's display name ("PCIe gen3 x16").
	Link string `json:"link"`
}

// Server is the HTTP handler. Create with New; it is an http.Handler safe
// for concurrent use.
type Server struct {
	sim     *vdnn.Simulator
	mux     *http.ServeMux
	handler http.Handler // recoverer( [chaos(] mux [)] )

	adm             *admission
	counters        serveCounters
	planner         plannerCounters
	draining        atomic.Bool
	defaultDeadline time.Duration
	maxDeadline     time.Duration

	jobs  *jobRunner
	log   *slog.Logger
	store *vdnn.Store // stats/metrics visibility only; may be nil
	reg   *metrics.Registry
	http  httpMetrics
}

// Request guardrails. Every numeric knob below is client-controlled, so the
// daemon bounds all of them: batch size (which also bounds the simulator's
// memoized-network cache churn), memory sizes (an oversized float GB count
// would overflow the int64 byte conversion), sweep fan-out and request body
// size. The result cache itself is bounded by the Simulator's WithCacheBound
// (cmd/vdnn-serve defaults it on).
const (
	maxBatch     = 4096
	maxMemGB     = 1 << 20 // 1 PB; far beyond any simulated host/device
	maxSweepJobs = 1024
	maxBodyBytes = 8 << 20
	// maxRequestDevices bounds the replica fan-out of one request (an
	// N-device simulation costs roughly N single-device passes).
	maxRequestDevices = 16
)

// Default deadlines: generous enough for the heaviest catalogued sweep, so
// only a stuck or abusive request ever hits them uninvited.
const (
	defaultRequestDeadline = 2 * time.Minute
	defaultMaxDeadline     = 10 * time.Minute
)

// New creates a Server answering from the given simulator. With no options
// it admits sim.Parallelism() concurrent simulation requests, queues 4× that
// beyond them, and applies the default deadlines above.
func New(sim *vdnn.Simulator, opts ...Option) *Server {
	o := options{
		maxConcurrent:   sim.Parallelism(),
		queueDepth:      -1,
		defaultDeadline: defaultRequestDeadline,
		maxDeadline:     defaultMaxDeadline,
	}
	for _, opt := range opts {
		opt(&o)
	}
	if o.maxConcurrent <= 0 {
		o.maxConcurrent = 1
	}
	if o.queueDepth < 0 {
		o.queueDepth = 4 * o.maxConcurrent
	}
	if o.logger == nil {
		o.logger = slog.New(slog.DiscardHandler)
	}
	s := &Server{
		sim:             sim,
		mux:             http.NewServeMux(),
		adm:             newAdmission(o.maxConcurrent, o.queueDepth),
		defaultDeadline: o.defaultDeadline,
		maxDeadline:     o.maxDeadline,
		log:             o.logger,
		store:           o.store,
	}
	s.jobs = newJobRunner(s)
	s.reg = s.newMetricsRegistry()
	s.route("GET /healthz", s.handleHealthz)
	s.route("GET /readyz", s.handleReadyz)
	s.route("POST /v1/simulate", s.handleSimulate)
	s.route("POST /v1/sweep", s.handleSweep)
	s.route("POST /v1/plan", s.handlePlan)
	s.route("GET /v1/networks", s.handleNetworks)
	s.route("GET /v1/catalog", s.handleNetworks) // same body, catalog-first name
	s.route("GET /v1/stats", s.handleStats)
	s.route("POST /v1/jobs", s.handleJobSubmit)
	s.route("GET /v1/jobs", s.handleJobList)
	s.route("GET /v1/jobs/{id}", s.handleJobStream)
	s.route("DELETE /v1/jobs/{id}", s.handleJobDelete)
	s.route("GET /metrics", s.reg.Handler().ServeHTTP)
	var h http.Handler = s.mux
	if o.injector != nil {
		h = o.injector.Middleware(h)
	}
	s.handler = s.recoverer(h)
	return s
}

// route registers a handler wrapped in the observability middleware: request
// id, in-flight gauge, per-endpoint request counter and latency histogram,
// and one structured log record per request.
func (s *Server) route(pattern string, h http.HandlerFunc) {
	s.mux.Handle(pattern, s.instrument(pattern, h))
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.handler.ServeHTTP(w, r) }

// Simulator returns the server's simulator (stats, registries).
func (s *Server) Simulator() *vdnn.Simulator { return s.sim }

// defaultRequest seeds the fields json.Unmarshal leaves untouched.
func defaultRequest() SimRequest {
	return SimRequest{
		Batch:    64,
		GPU:      "titanx",
		Policy:   vdnn.VDNNDyn,
		Algo:     vdnn.PerfOptimal,
		Prefetch: vdnn.PrefetchJIT,
	}
}

// network resolves (name, batch) through the simulator's memoized network
// cache — the identity-stable instances the result cache keys on.
func (s *Server) network(name string, batch int) (*vdnn.Network, error) {
	if batch <= 0 || batch > maxBatch {
		return nil, fmt.Errorf("batch must be in [1, %d], got %d", maxBatch, batch)
	}
	return s.sim.Network(name, batch)
}

// resolve turns a wire request into a simulation job.
func (s *Server) resolve(req SimRequest) (*vdnn.Network, vdnn.Config, error) {
	var cfg vdnn.Config
	net, err := s.network(req.Network, req.Batch)
	if err != nil {
		return nil, cfg, err
	}
	spec, ok := s.sim.GPUByName(req.GPU)
	if !ok {
		return nil, cfg, fmt.Errorf("unknown gpu %q (have %s)", req.GPU, strings.Join(s.sim.GPUNames(), ", "))
	}
	if req.GPUMemGB < 0 || req.HostGB < 0 || req.GPUMemGB > maxMemGB || req.HostGB > maxMemGB {
		return nil, cfg, fmt.Errorf("memory sizes must be in [0, %d] GB", int64(maxMemGB))
	}
	if req.GPUMemGB > 0 {
		spec.MemBytes = int64(req.GPUMemGB * float64(1<<30))
	}
	if req.Link != "" {
		link, ok := s.sim.LinkByName(req.Link)
		if !ok {
			return nil, cfg, fmt.Errorf("unknown link %q (have %s)", req.Link, strings.Join(s.sim.LinkNames(), ", "))
		}
		spec.Link = link
	}
	if req.Devices < 0 || req.Devices > maxRequestDevices {
		return nil, cfg, fmt.Errorf("devices must be in [1, %d], got %d", maxRequestDevices, req.Devices)
	}
	if req.Stages < 0 || req.Stages > maxRequestDevices {
		return nil, cfg, fmt.Errorf("stages must be in [1, %d], got %d", maxRequestDevices, req.Stages)
	}
	if req.Stages > 1 && req.Devices > 1 {
		return nil, cfg, fmt.Errorf("stages (%d) and devices (%d) cannot combine: pick pipeline or data parallelism", req.Stages, req.Devices)
	}
	if req.Stages <= 1 && (req.MicroBatches > 1 || req.StageCuts != "") {
		return nil, cfg, fmt.Errorf("micro_batches/stage_cuts require stages > 1")
	}
	if req.MicroBatches < 0 || req.MicroBatches > maxBatch {
		return nil, cfg, fmt.Errorf("micro_batches must be in [1, %d], got %d", maxBatch, req.MicroBatches)
	}
	topology, ok := vdnn.TopologyByName(req.Topology)
	if !ok {
		return nil, cfg, fmt.Errorf("unknown topology %q (have %s)", req.Topology, strings.Join(vdnn.TopologyNames(), ", "))
	}
	cfg = vdnn.Config{
		Spec:            spec,
		Policy:          req.Policy,
		Algo:            req.Algo,
		Prefetch:        req.Prefetch,
		Oracle:          req.Oracle,
		PageMigration:   req.PageMigration,
		OffloadWeights:  req.OffloadWeights,
		Compression:     vdnn.Compression{Codec: req.Codec, Sparsity: req.Sparsity},
		Devices:         req.Devices,
		Stages:          req.Stages,
		MicroBatches:    req.MicroBatches,
		StageCuts:       req.StageCuts,
		Topology:        topology,
		CaptureSchedule: req.Trace,
	}
	if req.Sparsity != "" && req.Codec == vdnn.CodecNone {
		return nil, cfg, fmt.Errorf("sparsity %q given without a codec (set codec to zvc or rle)", req.Sparsity)
	}
	if req.Codec != vdnn.CodecNone && req.PageMigration {
		// The codec lives in the DMA engines, which page migration bypasses;
		// the runtime would silently drop it, so reject the conflict instead
		// of reporting a codec that never ran.
		return nil, cfg, fmt.Errorf("codec %q cannot run under page migration (the codec sits in the DMA engines)", req.Codec)
	}
	if err := cfg.Compression.Validate(); err != nil {
		return nil, cfg, err
	}
	if req.HostGB > 0 {
		cfg.HostBytes = int64(req.HostGB * float64(1<<30))
	}
	if err := spec.Validate(); err != nil {
		return nil, cfg, err
	}
	return net, cfg, nil
}

// response formats a result for the wire.
func response(req SimRequest, res *vdnn.Result) (SimResponse, error) {
	out := SimResponse{
		Network:  res.Network,
		Batch:    res.Batch,
		GPU:      req.GPU,
		Policy:   res.Policy,
		Algo:     res.Algo,
		Prefetch: req.Prefetch,
		Chosen:   res.Chosen,

		Trainable:  res.Trainable,
		FailReason: res.FailReason,

		IterTimeMs: res.IterTime.Msec(),
		FETimeMs:   res.FETime.Msec(),

		MaxUsageBytes:      res.MaxUsage,
		AvgUsageBytes:      res.AvgUsage,
		FrameworkBytes:     res.FrameworkBytes,
		MaxWorkingSetBytes: res.MaxWorkingSet,

		OffloadBytes:        res.OffloadBytes,
		PrefetchBytes:       res.PrefetchBytes,
		OnDemandFetches:     res.OnDemandFetches,
		HostPinnedPeakBytes: res.HostPinnedPeak,

		AvgPowerW: res.Power.AvgW,
		MaxPowerW: res.Power.MaxW,

		EnergyJ:        res.Energy.TotalJ(),
		ComputeEnergyJ: res.Energy.ComputeJ,
		DMAEnergyJ:     res.Energy.DMAJ,
		CodecEnergyJ:   res.Energy.CodecJ,
		IdleEnergyJ:    res.Energy.IdleJ,
	}
	if req.Codec != vdnn.CodecNone {
		out.Codec = req.Codec.String()
		out.SparsityProfile = vdnn.Compression{Codec: req.Codec, Sparsity: req.Sparsity}.WithDefaults().Sparsity
		out.OffloadRawBytes = res.OffloadRawBytes
		out.PrefetchRawBytes = res.PrefetchRawBytes
		out.CompressionRatio = res.CompressionRatio
		out.CompressTimeMs = res.CompressTime.Msec()
		out.DecompressTimeMs = res.DecompressTime.Msec()
	}
	if n := len(res.Devices); n > 0 {
		out.Devices = n
		// Report the topology the simulation actually ran under: the
		// request's name resolved and defaulted exactly as core.Config does.
		reqTop, _ := vdnn.TopologyByName(req.Topology)
		out.Topology = vdnn.Config{Devices: n, Topology: reqTop}.WithDefaults().Topology.Name
		out.AllReduceBytes = res.AllReduceBytes
		out.AllReduceTimeMs = res.AllReduceTime.Msec()
		for _, d := range res.Devices {
			out.PerDevice = append(out.PerDevice, DeviceResponse{
				Device:         d.Device,
				StepTimeMs:     d.StepTime.Msec(),
				OffloadBytes:   d.OffloadBytes,
				PrefetchBytes:  d.PrefetchBytes,
				AllReduceBytes: d.AllReduceBytes,
				ContentionMs:   d.ContentionStall.Msec(),
				OverlapEff:     d.OverlapEff,
				ComputeBusyMs:  d.ComputeBusy.Msec(),
				CopyBusyMs:     d.CopyBusy.Msec(),
				EnergyJ:        d.Energy.TotalJ(),
			})
		}
	}
	if len(res.Stages) > 0 {
		out.Stages = len(res.Stages)
		out.MicroBatches = res.MicroBatches
		out.InterStageBytes = res.InterStageBytes
		out.InterStageRawBytes = res.InterStageRawBytes
		out.BubbleTimeMs = res.BubbleTime.Msec()
		out.BubbleFraction = res.BubbleFraction
		out.StageImbalance = res.DeviceImbalance()
		for _, s := range res.Stages {
			out.PerStage = append(out.PerStage, StageResponse{
				Stage:         s.Stage,
				FirstLayer:    s.FirstLayer,
				LastLayer:     s.LastLayer,
				StepTimeMs:    s.StepTime.Msec(),
				ComputeBusyMs: s.ComputeBusy.Msec(),
				BubbleTimeMs:  s.BubbleTime.Msec(),
				SendBytes:     s.SendBytes,
				RecvBytes:     s.RecvBytes,
				OffloadBytes:  s.OffloadBytes,
				PrefetchBytes: s.PrefetchBytes,
				PoolPeakBytes: s.PoolPeak,
			})
		}
	}
	if req.Trace {
		var buf bytes.Buffer
		if err := res.WriteChromeTrace(&buf); err != nil {
			return out, fmt.Errorf("rendering trace: %w", err)
		}
		out.Trace = json.RawMessage(bytes.TrimSpace(buf.Bytes()))
	}
	return out, nil
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	req := defaultRequest()
	if err := decodeJSON(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := validDeadlineMS(req.DeadlineMS); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	net, cfg, err := s.resolve(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// r.Context() is the cancellation root: a client disconnect (or the
	// daemon's drain hard-cancel via Server.BaseContext) propagates from here
	// through Run into the per-layer checks of the core trainer.
	ctx, cancel := s.requestContext(r.Context(), req.DeadlineMS)
	defer cancel()
	release, ok := s.admit(w, ctx)
	if !ok {
		return
	}
	defer release()
	res, err := s.sim.Run(ctx, net, cfg)
	if err != nil {
		s.writeSimError(w, err)
		return
	}
	out, err := response(req, res)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	s.counters.completed.Add(1)
	writeJSON(w, out)
}

// parseSweep decodes and resolves a sweep body into the job both
// /v1/sweep and POST /v1/jobs run, and returns the body's deadline_ms. On
// failure it has already written the 400 response and returns ok=false.
func (s *Server) parseSweep(w http.ResponseWriter, r *http.Request) (j *job, deadlineMS int64, ok bool) {
	var sr struct {
		Jobs       []json.RawMessage `json:"jobs"`
		DeadlineMS int64             `json:"deadline_ms"`
	}
	if err := decodeJSON(w, r, &sr); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return nil, 0, false
	}
	if err := validDeadlineMS(sr.DeadlineMS); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return nil, 0, false
	}
	if len(sr.Jobs) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("empty sweep: provide jobs"))
		return nil, 0, false
	}
	if len(sr.Jobs) > maxSweepJobs {
		writeError(w, http.StatusBadRequest, fmt.Errorf("sweep of %d jobs exceeds the limit of %d", len(sr.Jobs), maxSweepJobs))
		return nil, 0, false
	}
	j = &job{
		reqs:   make([]SimRequest, len(sr.Jobs)),
		batch:  make([]vdnn.BatchJob, len(sr.Jobs)),
		points: make([]jobPoint, len(sr.Jobs)),
	}
	for i, raw := range sr.Jobs {
		req := defaultRequest()
		if err := strictDecode(bytes.NewReader(raw), &req); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("job %d: %w", i, err))
			return nil, 0, false
		}
		if req.Trace {
			// A sweep of inline traces would dwarf any sane response body;
			// request traces one simulation at a time.
			writeError(w, http.StatusBadRequest, fmt.Errorf("job %d: trace is not available in sweeps; use /v1/simulate", i))
			return nil, 0, false
		}
		if req.DeadlineMS != 0 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("job %d: deadline_ms applies to the whole sweep; set it on the sweep body", i))
			return nil, 0, false
		}
		net, cfg, err := s.resolve(req)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("job %d: %w", i, err))
			return nil, 0, false
		}
		j.reqs[i] = req
		j.batch[i] = vdnn.BatchJob{Net: net, Cfg: cfg}
		j.points[i].done = make(chan struct{})
	}
	return j, sr.DeadlineMS, true
}

// handleSweep is POST /v1/sweep: {"jobs": [...], "deadline_ms": N} answered
// with one result per job, in job order. It runs the job POST /v1/jobs would
// run, inline under the request's own admission slot and deadline. The
// body's deadline_ms covers the whole batch; a per-job deadline_ms is
// rejected. A failed point fails the request with that point's status and
// code and the message "job i: <err>"; the first failure in job order wins.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	j, deadlineMS, ok := s.parseSweep(w, r)
	if !ok {
		return
	}
	ctx, cancel := s.requestContext(r.Context(), deadlineMS)
	defer cancel()
	release, ok := s.admit(w, ctx)
	if !ok {
		return
	}
	defer release()
	s.runJob(ctx, j)
	out := SweepResponse{Results: make([]SimResponse, len(j.points))}
	for i, p := range j.points {
		if p.err != nil {
			s.writeSimError(w, fmt.Errorf("job %d: %w", i, p.err))
			return
		}
		out.Results[i] = *p.resp
	}
	s.counters.completed.Add(1)
	writeJSON(w, out)
}

func (s *Server) handleNetworks(w http.ResponseWriter, _ *http.Request) {
	gpus := s.sim.GPUNames()
	backends := make([]BackendInfo, 0, len(gpus))
	for _, name := range gpus {
		spec, ok := s.sim.GPUByName(name)
		if !ok {
			continue // racing Register/overlay change; skip rather than 500
		}
		backends = append(backends, BackendInfo{
			Name:       name,
			Device:     spec.Name,
			Memory:     spec.MemKind.String(),
			MemGB:      float64(spec.MemBytes) / (1 << 30),
			PeakTFLOPS: spec.PeakFlops / 1e12,
			LinkClass:  spec.Link.Class.String(),
			Link:       spec.Link.Name,
		})
	}
	writeJSON(w, CatalogResponse{
		Networks:         vdnn.NetworkNames(),
		GPUs:             gpus,
		Backends:         backends,
		Links:            s.sim.LinkNames(),
		Topologies:       vdnn.TopologyNames(),
		Codecs:           vdnn.CodecNames(),
		SparsityProfiles: vdnn.SparsityProfileNames(),
	})
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	out := StatsResponse{
		EngineStats: s.sim.Stats(),
		Serve:       s.counters.snapshot(),
		Planner:     s.planner.snapshot(),
		Jobs:        s.jobs.stats(),
	}
	if s.store != nil {
		st := s.store.Stats()
		out.Store = &st
	}
	writeJSON(w, out)
}

// decodeJSON reads a size-capped request body strictly: unknown fields are
// errors, so typos ("polcy") fail loudly instead of silently simulating the
// default.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) error {
	return strictDecode(http.MaxBytesReader(w, r.Body, maxBodyBytes), v)
}

func strictDecode(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("invalid request body: %w", err)
	}
	return nil
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeError is the plain-validation error writer: the code derives from the
// status (4xx invalid, 5xx internal). Paths with a more specific taxonomy
// slot call writeErrorCode directly.
func writeError(w http.ResponseWriter, status int, err error) {
	code := "invalid"
	if status >= 500 {
		code = "internal"
	}
	writeErrorCode(w, status, code, err)
}

func writeErrorCode(w http.ResponseWriter, status int, code string, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error(), "code": code})
}
