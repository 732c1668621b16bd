package vdnn

import (
	"context"
	"sort"
	"sync"

	"vdnn/internal/sweep"
)

// BatchJob is one simulation request of a batch: a network and the
// configuration to train it under.
type BatchJob = sweep.Job

// EngineStats counts a Simulator's cache behavior: simulations actually
// performed, cache hits, coalesced duplicate requests, and evictions.
type EngineStats = sweep.Stats

// Simulator is the long-lived entry point of the library: a concurrent
// simulation engine with a result cache shared across every Run and RunBatch
// call, plus a named device/link registry for serialized configurations.
// Construct one per process (or per tenant) with NewSimulator and reuse it —
// repeated and overlapping requests for the same (network, configuration)
// pair are simulated exactly once. All methods are safe for concurrent use.
//
// The zero Simulator is not usable; the package-level Run remains as the
// one-shot convenience for scripts that simulate a single configuration.
type Simulator struct {
	eng   *sweep.Engine
	store ResultStore
	gpus  map[string]GPU
	links map[string]Link

	mu       sync.Mutex
	nets     map[netKey]*Network
	netOrder []netKey
}

type netKey struct {
	name  string
	batch int
}

// netCacheBound caps the memoized benchmark networks (FIFO eviction). An
// evicted network only costs future result-cache misses for that pair.
const netCacheBound = 1024

// SimulatorOption configures NewSimulator.
type SimulatorOption func(*simulatorConfig)

type simulatorConfig struct {
	parallelism int
	cacheBound  int
	fullSim     bool
	store       ResultStore
	gpus        map[string]GPU
	links       map[string]Link
}

// WithParallelism bounds how many top-level simulations run concurrently —
// across Run and RunBatch alike. n <= 0 (the default) selects all available
// cores; n == 1 schedules one simulation at a time, the determinism
// reference. (One VDNNDyn simulation internally profiles up to three
// candidate passes concurrently; the bound counts it as one.)
func WithParallelism(n int) SimulatorOption {
	return func(c *simulatorConfig) { c.parallelism = n }
}

// WithCacheBound bounds the result cache to at most n completed entries,
// evicting the oldest first (0, the default, is unbounded). Long-lived
// serving processes want a bound; one-shot evaluations do not.
func WithCacheBound(n int) SimulatorOption {
	return func(c *simulatorConfig) { c.cacheBound = n }
}

// WithFullSimulation disables differential sweep evaluation: every
// computation runs the complete simulation, even when a cached
// capacity-independent structure could have re-priced it. Results are
// identical either way — the differential path is exact, and equivalence is
// enforced by the engine's tests — so the only reason to turn it on is as the
// reference when measuring or debugging the differential path itself.
func WithFullSimulation() SimulatorOption {
	return func(c *simulatorConfig) { c.fullSim = true }
}

// WithStore backs the simulator's in-memory result cache with a persistent
// read/write-through store (usually OpenStore's file-backed one): completed
// simulations are written through, and a request whose result is already
// stored — by an earlier process, or by another live process sharing the
// same store directory — is served from it without simulating. Store hits
// do not count toward EngineStats.Simulations. Results for custom-policy
// configurations and the engine's internal structure probes are never
// persisted.
func WithStore(s ResultStore) SimulatorOption {
	return func(c *simulatorConfig) { c.store = s }
}

// WithGPU adds a named device to the simulator's registry, shadowing any
// built-in entry with the same name. The registry backs GPUByName and the
// serialized request surfaces (vdnn-serve) built on it.
func WithGPU(name string, spec GPU) SimulatorOption {
	return func(c *simulatorConfig) { c.gpus[name] = spec }
}

// WithLink adds a named interconnect to the simulator's registry, shadowing
// any built-in entry with the same name.
func WithLink(name string, link Link) SimulatorOption {
	return func(c *simulatorConfig) { c.links[name] = link }
}

// NewSimulator creates a Simulator with the given options.
func NewSimulator(opts ...SimulatorOption) *Simulator {
	c := simulatorConfig{gpus: map[string]GPU{}, links: map[string]Link{}}
	for _, o := range opts {
		o(&c)
	}
	eng := sweep.NewEngineCache(c.parallelism, c.cacheBound)
	eng.SetFullSimulation(c.fullSim)
	if c.store != nil {
		eng.SetStore(c.store)
	}
	return &Simulator{
		eng:   eng,
		store: c.store,
		gpus:  c.gpus,
		links: c.links,
		nets:  map[netKey]*Network{},
	}
}

// Network returns a memoized benchmark network for (name, batch), building
// it on first use (same names as BuildNetwork). Results are cached by
// network IDENTITY, so a caller that rebuilds the network per request gets
// zero cache hits; Network hands every caller of one simulator the same
// instance, which is what makes repeated and concurrent requests for one
// (network, configuration) pair collapse onto one simulation. The serving
// daemon and the sweep CLIs resolve their requests through it.
func (s *Simulator) Network(name string, batch int) (*Network, error) {
	k := netKey{name: name, batch: batch}
	s.mu.Lock()
	defer s.mu.Unlock()
	if n, ok := s.nets[k]; ok {
		return n, nil
	}
	n, err := BuildNetwork(name, batch)
	if err != nil {
		return nil, err
	}
	if len(s.netOrder) >= netCacheBound {
		oldest := s.netOrder[0]
		s.netOrder = s.netOrder[1:]
		// Purge the evicted network's cached results too: a future request
		// for the pair builds a fresh instance, so results keyed by the old
		// identity could never be hit again and would otherwise pin the
		// dead graph in an unbounded result cache forever.
		s.eng.PurgeNetwork(s.nets[oldest])
		delete(s.nets, oldest)
	}
	s.nets[k] = n
	s.netOrder = append(s.netOrder, k)
	return n, nil
}

// Run simulates training one network under one configuration, serving the
// result from the shared cache when an identical simulation already ran (or
// is running — concurrent requests coalesce onto one simulation). When the
// configuration cannot train the network (out of memory), the Result has
// Trainable == false and reports the hypothetical demand measured on an
// oracular device; a non-nil error indicates an invalid configuration.
//
// Cancellation is prompt and precise: once ctx is canceled the running
// simulation stops at its next per-layer check and Run returns an error
// satisfying errors.Is(err, ErrCanceled) (and the context's own cause).
// When concurrent callers coalesce onto one simulation, it keeps running
// until the last interested caller cancels; a canceled simulation is never
// cached, so the next identical request simulates afresh.
func (s *Simulator) Run(ctx context.Context, net *Network, cfg Config) (*Result, error) {
	return s.eng.Run(ctx, net, cfg)
}

// RunBatch simulates a batch of jobs concurrently (bounded by the
// simulator's parallelism) and returns the results in job order —
// deterministically: the result set is byte-identical at any parallelism.
// Duplicate jobs, within the batch or against anything the simulator ran
// before, are simulated once and share one Result. The first error in job
// order is returned; results of failed jobs are nil. Once ctx is canceled no
// further simulations start, running ones stop at their next per-layer
// check, and the remaining jobs fail with errors identifying the job index
// and satisfying errors.Is(err, ErrCanceled) or the context's error.
func (s *Simulator) RunBatch(ctx context.Context, jobs []BatchJob) ([]*Result, error) {
	return s.eng.RunAll(ctx, jobs)
}

// RunEach runs a batch exactly as RunBatch does, but hands each job's
// outcome to done as soon as it is known instead of collecting them:
// done(i, res, err) is called exactly once per job, possibly concurrently
// and in any order, with the job's own unwrapped error.
func (s *Simulator) RunEach(ctx context.Context, jobs []BatchJob, done func(i int, res *Result, err error)) {
	s.eng.RunEach(ctx, jobs, done)
}

// Stats returns a snapshot of the simulator's cache counters.
func (s *Simulator) Stats() EngineStats { return s.eng.Stats() }

// ResultStore returns the persistent store configured with WithStore, or
// nil.
func (s *Simulator) ResultStore() ResultStore { return s.store }

// Parallelism returns the configured concurrency.
func (s *Simulator) Parallelism() int { return s.eng.Workers() }

// CacheBound returns the configured cache capacity (0 = unbounded).
func (s *Simulator) CacheBound() int { return s.eng.CacheBound() }

// SetChaosHook installs a fault-injection hook on the simulation engine
// (see internal/chaos): it runs once per actual simulation, where a non-nil
// return fails that attempt and a panic exercises the engine's panic
// isolation. Injected failures are never cached. Test harness only; set it
// before the simulator serves traffic.
func (s *Simulator) SetChaosHook(h func(point string) error) { s.eng.SetChaosHook(h) }

// GPUByName resolves a device name against the simulator's registry:
// WithGPU entries first, then the package-level built-ins (see GPUNames).
func (s *Simulator) GPUByName(name string) (GPU, bool) {
	if spec, ok := s.gpus[name]; ok {
		return spec, true
	}
	return GPUByName(name)
}

// LinkByName resolves an interconnect name against the simulator's registry:
// WithLink entries first, then the package-level built-ins.
func (s *Simulator) LinkByName(name string) (Link, bool) {
	if l, ok := s.links[name]; ok {
		return l, true
	}
	return LinkByName(name)
}

// GPUNames lists every device name this simulator resolves, sorted.
func (s *Simulator) GPUNames() []string { return mergeNames(GPUNames(), s.gpus) }

// LinkNames lists every interconnect name this simulator resolves, sorted.
func (s *Simulator) LinkNames() []string { return mergeNames(LinkNames(), s.links) }

func mergeNames[V any](base []string, extra map[string]V) []string {
	seen := make(map[string]bool, len(base)+len(extra))
	var out []string
	for _, n := range base {
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	for n := range extra {
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}
