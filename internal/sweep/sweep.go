// Package sweep is the concurrent experiment scheduler the evaluation and
// the public batch API run on. The paper's figures, ablations and case
// studies are a design-space sweep of hundreds of independent simulated
// training iterations; each core.Run is a self-contained deterministic
// simulation, so the sweep parallelizes perfectly. The engine provides:
//
//   - a bounded worker pool that saturates the configured parallelism,
//   - a result cache shared by every experiment, keyed by
//     (network, normalized configuration, policy name), so the same
//     configuration is simulated exactly once no matter how many figures or
//     requests reference it — optionally bounded, with FIFO eviction,
//   - singleflight deduplication: concurrent requests for one key coalesce
//     onto the in-flight simulation instead of repeating it,
//   - context-aware scheduling: callers abandon waits on cancellation, and a
//     batch stops dispatching new simulations once its context is done, and
//   - differential evaluation: sweep points that share a capacity-independent
//     structure (core.StructureShaped) are simulated once — the first point
//     to ask builds the structure at its own capacity — and every other
//     point is priced from it by core.Structure.Price: the same Results, a
//     fraction of the work. The structure is an ordinary cache entry under
//     a capacity-free key (structureKey), resolved nested inside the
//     requesting computation, so it shares the one entry lifecycle (claim,
//     coalesce, cancel, uncache on error) with every other key.
//
// The cache is sharded by key hash so concurrent hits on distinct keys do not
// contend on one mutex; eviction bookkeeping stays global (FIFO order across
// shards) and is touched only on the miss path, where the simulation about to
// run dwarfs it.
//
// Determinism guarantee: RunAll returns results in job order and each
// simulation is a pure function of its (network, configuration) inputs, so
// the result set — and any report formatted from it — is byte-identical
// whether the engine runs with 1 worker or N, and whether a result was
// simulated in full or priced from a shared structure (the differential path
// is exact, enforced by this package's equivalence tests).
package sweep

import (
	"context"
	"errors"
	"fmt"
	"hash/maphash"
	"runtime"
	"sync"
	"sync/atomic"

	"vdnn/internal/core"
	"vdnn/internal/dnn"
)

// Job is one simulation request: a network and the configuration to train it
// under.
type Job struct {
	Net *dnn.Network
	Cfg core.Config
}

// key identifies a simulation. The network is keyed by identity (callers
// memoize network construction; building the same architecture twice yields
// distinct graphs that are free to diverge), the configuration by its
// normalized value. A custom policy is keyed by its Name — the OffloadPolicy
// contract — which keeps the key comparable whatever the policy's dynamic
// type is made of. structure marks the capacity-free key of a differential
// structure (structureKey); no request's key ever has it set.
type key struct {
	net       *dnn.Network
	cfg       core.Config
	policy    string
	structure bool
}

func keyOf(net *dnn.Network, cfg core.Config) key {
	k := key{net: net, cfg: cfg.WithDefaults()}
	if cfg.Custom != nil {
		k.policy = cfg.Custom.Name()
		k.cfg.Custom = nil
	}
	return k
}

// structureKey maps a structure-shaped request's key to the key of its
// capacity-independent structure: every sweep point differing only in
// MemBytes/ReservedBytes/Oracle maps to the same structure entry.
func structureKey(k key) key {
	k.structure = true
	k.cfg.Oracle = false
	k.cfg.Spec.MemBytes = 0
	k.cfg.Spec.ReservedBytes = 0
	return k
}

// entry is one cache slot — a completed or in-flight computation of one key.
// done is closed when res/err are final, which is what lets concurrent
// requests for the same key wait on the first without holding any lock.
//
// structure is set on structure-key entries: the capacity-independent stage
// shared by every sweep point that normalizes to this key (res then aliases
// structure.Res, the oracle result).
//
// refs counts the callers interested in the in-flight computation — the
// initiator plus every coalesced waiter (guarded by the owning shard's
// mutex). A caller abandoning its wait drops its reference; when the last
// reference is dropped the computation's own context is canceled, so work
// nobody is waiting for stops at the next layer boundary instead of burning
// a full simulation. One surviving waiter keeps the computation alive for
// everyone.
//
// topLevel marks an entry claimed by a top-level request (one holding a
// worker slot) rather than by a nested resolution inside another
// computation; only top-level aborts count toward Stats.Canceled.
type entry struct {
	done      chan struct{}
	res       *core.Result
	err       error
	structure *core.Structure
	refs      int
	cancel    context.CancelFunc
	topLevel  bool
}

// Stats counts the engine's cache behavior (test, reporting and /v1/stats
// aid).
type Stats struct {
	// Simulations is the number of top-level requests that were computed
	// rather than served from the cache — each holds a worker slot and
	// counts once whether it ran a full simulation or was priced from a
	// shared structure. Nested resolutions — the static candidates a
	// vDNN-dyn profiler evaluates — are not counted, so the number depends
	// on batch order: a configuration first computed as a nested candidate
	// is a hit when requested later at top level, while one requested first
	// at top level counts here.
	Simulations int64 `json:"simulations"`
	// Structures is the number of capacity-independent structure builds —
	// full simulations recorded for differential re-pricing (usually a
	// configuration's first sweep point, simulated at its own capacity;
	// oracle-capacity builds when that first point is untrainable or the
	// request itself is an oracle run).
	Structures int64 `json:"structures"`
	// Priced is the number of results core.Structure.Price answered from a
	// structure built by another request instead of a full simulation: the
	// work the differential path avoided. An untrainable point counts too —
	// its failure is a trace replay to the failing allocation, and its
	// demand report is the structure's. The request that builds a structure
	// counts under Structures only, whether it is an oracle request or not.
	Priced int64 `json:"priced"`
	// Hits is the number of requests served from a completed cache entry.
	Hits int64 `json:"hits"`
	// Coalesced is the number of requests folded onto another request of the
	// same key instead of starting their own computation: duplicates within
	// a batch, plus requests that waited on an in-flight entry.
	Coalesced int64 `json:"coalesced"`
	// Evictions is the number of completed entries dropped to honor the
	// cache bound.
	Evictions int64 `json:"evictions"`
	// Canceled is the number of top-level computations aborted mid-flight
	// because every caller waiting on them went away. Nested computations —
	// structure builds and profiling candidates resolved inside an aborted
	// request — die with it and are not counted again, so each abandoned
	// request counts once.
	Canceled int64 `json:"canceled"`
}

// nShards is the cache partition count. Shard selection hashes the full key,
// so concurrent lookups of distinct keys — the RunAll hot path — contend on
// a shard mutex 1/nShards as often as on a single cache lock. Sixteen covers
// any worker count this engine is configured with; a larger fan-out buys
// nothing once shards outnumber workers.
const nShards = 16

// shard is one cache partition: a mutex and the entries whose key hashes
// here. Entry refcounts are guarded by the owning shard's mutex.
type shard struct {
	mu    sync.Mutex
	cache map[key]*entry
}

// Engine schedules simulations over a bounded worker pool with a shared,
// deduplicated, sharded result cache. The zero value is not usable; use
// NewEngine.
type Engine struct {
	workers    int
	maxEntries int
	sem        chan struct{} // worker slots; every top-level computation holds one

	// hook, when set, is called at the fault-injection points of the worker
	// loop (SetChaosHook). A returned error fails the simulation without
	// running it; a panic exercises the engine's panic isolation. Injected
	// failures are transient, so they are never retained in the cache.
	hook func(point string) error

	// fullSim disables differential evaluation: every computation takes the
	// full-simulation path. Reference mode for equivalence tests and the
	// speedup benchmarks (SetFullSimulation).
	fullSim bool

	// store, when set, extends the in-memory cache with a persistent
	// read/write-through layer (SetStore). Loaded before a claimed
	// computation simulates, written after it succeeds; structure entries
	// (whose value is in-process allocator state) are never stored.
	store ResultStore

	seed   maphash.Seed
	shards [nShards]shard
	count  atomic.Int64 // live entries across all shards

	// Eviction bookkeeping, bounded caches only. evmu is acquired before any
	// shard mutex (never the other way around) and only on the miss path —
	// claiming a key — where the simulation about to run dwarfs it.
	evmu  sync.Mutex
	order []key // eviction queue; order[head:] is live, oldest first
	head  int

	stats engineStats
}

// engineStats is the engine's internal counter block: atomics, so the hit
// path touches no lock beyond its shard's.
type engineStats struct {
	simulations atomic.Int64
	structures  atomic.Int64
	priced      atomic.Int64
	hits        atomic.Int64
	coalesced   atomic.Int64
	evictions   atomic.Int64
	canceled    atomic.Int64
}

// NewEngine creates an engine running at most workers simulations
// concurrently, with an unbounded result cache. workers <= 0 selects
// GOMAXPROCS. workers == 1 yields a strictly sequential engine (useful as
// the determinism reference).
func NewEngine(workers int) *Engine { return NewEngineCache(workers, 0) }

// NewEngineCache creates an engine whose result cache holds at most
// maxEntries completed results (0 = unbounded). When full, the oldest
// completed entries are evicted first; in-flight computations are never
// evicted. Bounding the cache trades repeat-hit latency for memory — a
// long-lived serving process wants a bound, a one-shot evaluation does not.
func NewEngineCache(workers, maxEntries int) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if maxEntries < 0 {
		maxEntries = 0
	}
	e := &Engine{
		workers:    workers,
		maxEntries: maxEntries,
		sem:        make(chan struct{}, workers),
		seed:       maphash.MakeSeed(),
	}
	for i := range e.shards {
		e.shards[i].cache = map[key]*entry{}
	}
	return e
}

// shardOf maps a key to its cache partition.
func (e *Engine) shardOf(k key) *shard {
	return &e.shards[maphash.Comparable(e.seed, k)%nShards]
}

// Workers returns the configured parallelism.
func (e *Engine) Workers() int { return e.workers }

// SetChaosHook installs a fault-injection hook called once per top-level
// simulation attempt, just before the computation runs (point "simulate").
// A non-nil return fails the attempt with that error; a panic is recovered
// by the engine's panic isolation and becomes a shared error. Pass nil to
// remove. Set it before the engine serves traffic — it is read without
// locking on the hot path.
func (e *Engine) SetChaosHook(h func(point string) error) { e.hook = h }

// CacheBound returns the configured cache capacity (0 = unbounded).
func (e *Engine) CacheBound() int { return e.maxEntries }

// ResultStore is a persistent result cache behind the in-memory one —
// implemented by internal/store, abstracted here so the engine stays
// storage-agnostic. Load returns a previously persisted result for exactly
// the computation (net, cfg) describes, or ok=false (a miss, a corrupt
// record, or a config the store cannot address, e.g. a custom policy). Save
// persists a successful result; it must not fail the computation, so it
// returns nothing. Both must be safe for concurrent use.
type ResultStore interface {
	Load(net *dnn.Network, cfg core.Config) (*core.Result, bool)
	Save(net *dnn.Network, cfg core.Config, res *core.Result)
}

// SetStore installs a persistent read/write-through store: every claimed
// computation — top-level requests and nested profiling candidates alike —
// first consults the store, and a hit is returned without simulating (it
// does not count toward Stats.Simulations, so a fully warm store means zero
// simulations). Successful results are written through after computing.
// Structure entries are exempt in both directions: their value is the
// in-process allocator trace, which is not meaningful across processes.
// Set it before the engine serves traffic — it is read without locking on
// the hot path.
func (e *Engine) SetStore(s ResultStore) { e.store = s }

// SetFullSimulation, when on, disables differential evaluation: every
// computation runs the complete simulation even when a shared structure could
// have priced it. Results are identical either way (that equivalence is
// tested); full mode is the reference the differential path is measured and
// verified against. Set it before the engine serves traffic — it is read
// without locking on the hot path.
func (e *Engine) SetFullSimulation(on bool) { e.fullSim = on }

// Stats returns a snapshot of the cache counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Simulations: e.stats.simulations.Load(),
		Structures:  e.stats.structures.Load(),
		Priced:      e.stats.priced.Load(),
		Hits:        e.stats.hits.Load(),
		Coalesced:   e.stats.coalesced.Load(),
		Evictions:   e.stats.evictions.Load(),
		Canceled:    e.stats.canceled.Load(),
	}
}

// PurgeNetwork drops every cached result keyed by the given network
// instance, structure entries included. Callers that evict a network from
// their own memoization use it so results keyed by the dead identity —
// unreachable by any future request — do not pin the graph forever in an
// unbounded cache. The network's graph analyses live on the network itself
// and go with it.
// An in-flight entry finishes normally for its waiters and is then deleted
// asynchronously.
func (e *Engine) PurgeNetwork(net *dnn.Network) {
	for i := range e.shards {
		sh := &e.shards[i]
		sh.mu.Lock()
		for k, ent := range sh.cache {
			if k.net != net {
				continue
			}
			select {
			case <-ent.done:
				delete(sh.cache, k)
				e.count.Add(-1)
				e.stats.evictions.Add(1)
			default:
				// Still running: collect it once it completes, or the
				// dead-keyed result would survive forever in an unbounded
				// cache.
				go func(sh *shard, k key, ent *entry) {
					<-ent.done
					sh.mu.Lock()
					if sh.cache[k] == ent {
						delete(sh.cache, k)
						e.count.Add(-1)
						e.stats.evictions.Add(1)
					}
					sh.mu.Unlock()
				}(sh, k, ent)
			}
		}
		sh.mu.Unlock()
	}
}

// evictLocked drops oldest completed entries until the cache fits the bound
// again (leaving room for one insertion). Called with e.evmu held and no
// shard mutex held. The common case — the oldest entry has completed — is an
// O(1) head advance; the splice only runs when the head entry is still in
// flight (transient).
func (e *Engine) evictLocked() {
	for int(e.count.Load()) >= e.maxEntries {
		evicted := false
		for i := e.head; i < len(e.order); i++ {
			k := e.order[i]
			sh := e.shardOf(k)
			sh.mu.Lock()
			if ent, ok := sh.cache[k]; ok {
				select {
				case <-ent.done:
				default:
					sh.mu.Unlock()
					continue // in-flight: never evict
				}
				delete(sh.cache, k)
				e.count.Add(-1)
				e.stats.evictions.Add(1)
			}
			sh.mu.Unlock()
			if i == e.head {
				e.order[i] = key{} // release references
				e.head++
			} else {
				copy(e.order[i:], e.order[i+1:])
				e.order[len(e.order)-1] = key{}
				e.order = e.order[:len(e.order)-1]
			}
			evicted = true
			break
		}
		if !evicted {
			return // everything resident is in flight; allow temporary overshoot
		}
	}
	// Reclaim the consumed prefix once it dominates the backing array.
	if e.head > 32 && e.head > len(e.order)/2 {
		e.order = append(e.order[:0:0], e.order[e.head:]...)
		e.head = 0
	}
}

// claim inserts ent as the in-flight entry for k, evicting first when the
// cache is bounded. Returns false when another caller claimed the key in the
// window since the caller's lookup — coalesce onto theirs.
func (e *Engine) claim(sh *shard, k key, ent *entry) bool {
	if e.maxEntries > 0 {
		e.evmu.Lock()
		defer e.evmu.Unlock()
		e.evictLocked()
	}
	sh.mu.Lock()
	if _, ok := sh.cache[k]; ok {
		sh.mu.Unlock()
		return false
	}
	sh.cache[k] = ent
	e.count.Add(1)
	sh.mu.Unlock()
	if e.maxEntries > 0 {
		e.order = append(e.order, k) // eviction order; unused when unbounded
	}
	return true
}

// dropRef releases one caller's interest in an in-flight entry; the last
// drop cancels the computation's context so abandoned work stops at the next
// layer boundary, and counts the abort when the computation is top-level.
func (e *Engine) dropRef(sh *shard, ent *entry) {
	sh.mu.Lock()
	ent.refs--
	last := ent.refs <= 0
	if last {
		select {
		case <-ent.done:
			last = false // already finished; nothing to abort
		default:
			if ent.topLevel {
				e.stats.canceled.Add(1)
			}
		}
	}
	sh.mu.Unlock()
	if last {
		ent.cancel()
	}
}

// uncache removes a completed entry that must not serve future requests —
// errored computations: cancellations and injected faults are transient, and
// caching a panic or validation error would pin a one-off failure onto a key
// forever. Waiters already parked on the entry still share its error; only
// later requests re-compute.
func (e *Engine) uncache(sh *shard, k key, ent *entry) {
	sh.mu.Lock()
	if sh.cache[k] == ent {
		delete(sh.cache, k)
		e.count.Add(-1)
	}
	sh.mu.Unlock()
}

// Run simulates one job, serving it from the cache when an identical job has
// already run (or is running). Safe for concurrent use. Every top-level
// computation holds one of the engine's worker slots, so single-Run callers
// (the HTTP daemon's simulate endpoint, many goroutines deep) are bounded by
// the configured parallelism exactly like RunAll batches. (The bound counts
// top-level computations: structure builds and a profiling policy's
// candidate simulations run nested inside their initiator's slot — a
// deliberate, fixed-factor overshoot; nested work cannot take engine slots
// of its own without risking nested-acquire deadlock.)
//
// Cancellation: a canceled context abandons the wait immediately, and the
// in-flight computation is reference-counted — it keeps running while any
// other caller still waits on it and is itself canceled (mid-flight, at the
// next layer boundary) when the last waiter goes away. Errored results,
// cancellations included, are never retained in the cache: a fresh request
// for the same key re-computes.
func (e *Engine) Run(ctx context.Context, net *dnn.Network, cfg core.Config) (*core.Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res, _, err := e.resolve(ctx, net, cfg.Custom, keyOf(net, cfg), true, e.compute)
	return res, err
}

// computation produces the value of one cache entry: the Result, plus the
// Structure when the entry is a structure key. cfg is k.cfg with the
// caller's Custom policy instance restored.
type computation func(runCtx context.Context, net *dnn.Network, cfg core.Config, k key) (*core.Result, *core.Structure, error)

// resolve serves one key from the cache, coalescing onto an in-flight
// computation or claiming the entry and running compute for it. It is the
// single entry lifecycle behind top-level requests (topLevel: holds a worker
// slot, fires the chaos hook, counts toward Stats.Simulations) and nested
// resolutions — structure builds and profiling-candidate simulations issued
// from inside a computation, which run under their initiator's slot and
// report cancellation as core.ErrCanceled the way an in-process candidate
// would.
func (e *Engine) resolve(ctx context.Context, net *dnn.Network, custom core.OffloadPolicy, k key, topLevel bool, compute computation) (*core.Result, *core.Structure, error) {
	if ctx.Err() != nil {
		if topLevel {
			return nil, nil, ctx.Err()
		}
		return nil, nil, canceledAs(ctx)
	}
	sh := e.shardOf(k)
	for {
		sh.mu.Lock()
		if ent, ok := sh.cache[k]; ok {
			select {
			case <-ent.done:
				e.stats.hits.Add(1)
				sh.mu.Unlock()
				return ent.res, ent.structure, ent.err
			default:
				ent.refs++
				e.stats.coalesced.Add(1)
			}
			sh.mu.Unlock()
			select {
			case <-ent.done:
				if ent.err != nil && errors.Is(ent.err, core.ErrCanceled) {
					if ctx.Err() == nil {
						// The computation we coalesced onto was aborted (its
						// last other waiter left before our reference landed,
						// or the cancel raced our join), but this caller is
						// still live: retry on a fresh entry.
						continue
					}
					return nil, nil, canceledAs(ctx)
				}
				return ent.res, ent.structure, ent.err
			case <-ctx.Done():
				e.dropRef(sh, ent)
				if topLevel {
					return nil, nil, ctx.Err()
				}
				return nil, nil, canceledAs(ctx)
			}
		}
		sh.mu.Unlock()

		if topLevel {
			// Acquire a worker slot BEFORE claiming the key: a wait
			// abandoned by cancellation then leaves no half-made entry
			// behind for other callers to hang on.
			select {
			case e.sem <- struct{}{}:
			case <-ctx.Done():
				return nil, nil, ctx.Err()
			}
		}

		runCtx, runCancel := context.WithCancel(context.Background())
		ent := &entry{done: make(chan struct{}), refs: 1, cancel: runCancel, topLevel: topLevel}
		if !e.claim(sh, k, ent) {
			// Another caller claimed the key while we waited for the slot;
			// release it and coalesce onto theirs.
			runCancel()
			if topLevel {
				<-e.sem
			}
			continue
		}
		// The initiator runs the computation on its own goroutine, so its
		// cancellation must be observed from the side: AfterFunc drops the
		// initiator's reference when ctx fires, which cancels runCtx only if
		// no coalesced waiter still wants the result.
		stopWatch := context.AfterFunc(ctx, func() { e.dropRef(sh, ent) })

		runCfg := k.cfg
		runCfg.Custom = custom
		func() {
			// done must close on every path: a panic that escaped past it
			// would leave the entry permanently in flight, hanging every
			// later request for the key. A panicking simulation (a bug, a
			// hostile custom policy, or an injected chaos fault) becomes an
			// error shared by all waiters instead.
			defer func() {
				if r := recover(); r != nil {
					ent.res, ent.err = nil, fmt.Errorf("sweep: simulation panic: %v", r)
				}
				close(ent.done)
				stopWatch()
				runCancel() // release the context's resources on every path
				if ent.err != nil {
					e.uncache(sh, k, ent)
				}
				if topLevel {
					<-e.sem
				}
			}()
			// Read through the persistent store before simulating. A stored
			// result is exact — keys are normalized configs plus the network's
			// structural fingerprint — so a hit is not a simulation: it fires
			// no chaos hook and does not count toward Stats.Simulations, which
			// is what lets a restarted daemon serve a repeated sweep with zero
			// re-simulations. Structure keys are exempt: their entries carry
			// the in-process allocator trace a stored Result cannot.
			persistable := e.store != nil && !k.structure
			if persistable {
				if res, ok := e.store.Load(net, runCfg); ok {
					ent.res = res
					return
				}
			}
			if topLevel {
				e.stats.simulations.Add(1)
				if h := e.hook; h != nil {
					if herr := h("simulate"); herr != nil {
						ent.err = fmt.Errorf("sweep: injected fault: %w", herr)
						return
					}
				}
			}
			ent.res, ent.structure, ent.err = compute(runCtx, net, runCfg, k)
			if persistable && ent.err == nil && ent.res != nil {
				e.store.Save(net, runCfg, ent.res)
			}
		}()
		if ent.err != nil && errors.Is(ent.err, core.ErrCanceled) {
			if ctx.Err() == nil {
				// Aborted under us (a waiter-join/cancel race), but this
				// caller is still live: retry.
				continue
			}
			return nil, nil, canceledAs(ctx)
		}
		return ent.res, ent.structure, ent.err
	}
}

// compute is the computation of an ordinary key: the differential
// structure/pricing split when the configuration is eligible, a full
// simulation otherwise. The structure is itself a cache entry, resolved
// nested under structureKey(k); when this request claims it, the build runs
// at the request's own configuration, so a configuration's first sweep point
// costs one simulation and still leaves the structure behind for its
// siblings. Every other request is priced from the structure. A failed build
// — an invalid configuration, say — falls through to the full path, which
// reproduces the exact error: a structure bug must never mask a real result.
func (e *Engine) compute(runCtx context.Context, net *dnn.Network, cfg core.Config, k key) (*core.Result, *core.Structure, error) {
	if !e.fullSim && cfg.Custom == nil && core.StructureShaped(cfg) {
		var own *core.Result // the builder's own Result, when this request built the structure
		build := func(runCtx context.Context, net *dnn.Network, _ core.Config, _ key) (*core.Result, *core.Structure, error) {
			st, res, err := core.BuildStructureAt(runCtx, net, cfg)
			if err != nil {
				return nil, nil, err
			}
			e.stats.structures.Add(1)
			own = res
			return st.Res, st, nil
		}
		_, st, err := e.resolve(runCtx, net, nil, structureKey(k), false, build)
		switch {
		case own != nil:
			return own, nil, nil
		case err == nil:
			res, _, err := st.Price(runCtx, net, cfg)
			if err == nil {
				e.stats.priced.Add(1)
			}
			return res, nil, err
		case errors.Is(err, core.ErrCanceled):
			return nil, nil, err
		}
	}
	res, err := e.runFull(runCtx, net, cfg)
	return res, nil, err
}

// runFull runs the complete simulation for cfg, routing a profiling policy's
// candidate configurations back through the engine so candidates shared
// between sweep points — and the structures behind them — are computed once
// across the whole sweep instead of once per profiling pass. In full-
// simulation mode the routing is off too: every profiling candidate
// simulates inline, the reference engine behavior.
func (e *Engine) runFull(runCtx context.Context, net *dnn.Network, cfg core.Config) (*core.Result, error) {
	if e.fullSim {
		return core.RunContext(runCtx, net, cfg)
	}
	return core.RunContextWith(runCtx, net, cfg, func(sub core.Config) (*core.Result, error) {
		res, _, err := e.resolve(runCtx, net, sub.Custom, keyOf(net, sub), false, e.compute)
		return res, err
	})
}

// canceledAs rewraps an abort with the calling context's own cause. A
// computation runs under a detached context whose cancellation is always a
// plain Canceled, so the shared entry error cannot distinguish a caller
// whose deadline fired from one that hung up — each caller reports its own
// reason.
func canceledAs(ctx context.Context) error {
	return fmt.Errorf("%w: %w", core.ErrCanceled, context.Cause(ctx))
}

// RunAll simulates a batch of jobs across the worker pool and returns the
// results in job order: RunEach, collected. The first error in job order is
// returned, wrapped with the failing job's network and policy; results of
// failed jobs are nil.
func (e *Engine) RunAll(ctx context.Context, jobs []Job) ([]*core.Result, error) {
	results := make([]*core.Result, len(jobs))
	errs := make([]error, len(jobs))
	e.RunEach(ctx, jobs, func(i int, res *core.Result, err error) { results[i], errs[i] = res, err })
	for i, err := range errs {
		if err != nil {
			policy := fmt.Sprint(jobs[i].Cfg.Policy)
			if jobs[i].Cfg.Custom != nil {
				policy = jobs[i].Cfg.Custom.Name()
			}
			return results, fmt.Errorf("sweep: job %d (%s, %s %v): %w",
				i, jobs[i].Net.Name, policy, jobs[i].Cfg.Algo, err)
		}
	}
	return results, nil
}

// RunEach simulates a batch of jobs across the worker pool and hands each
// job's outcome to done as soon as it is known: done(i, res, err) is called
// exactly once per job, from the goroutine that finished it, so calls for
// distinct jobs may run concurrently and in any order. Duplicate jobs
// (within the batch or against earlier calls) are simulated once and share
// one *core.Result; within-batch duplicates are folded before dispatch so
// they never occupy a worker slot waiting on their twin, and receive their
// twin's outcome. Once ctx is canceled, no further simulations are
// dispatched and the remaining jobs fail with the context's error.
func (e *Engine) RunEach(ctx context.Context, jobs []Job, done func(i int, res *core.Result, err error)) {
	if ctx == nil {
		ctx = context.Background()
	}
	// Fold within-batch duplicates: only the first job of each key is
	// dispatched, and twin[i] chains to the next job with the same key (0:
	// none — a twin always comes later).
	twin := make([]int, len(jobs))
	last := make(map[key]int, len(jobs))
	unique := make([]int, 0, len(jobs))
	for i, j := range jobs {
		k := keyOf(j.Net, j.Cfg)
		if l, ok := last[k]; ok {
			twin[l] = i
		} else {
			unique = append(unique, i)
		}
		last[k] = i
	}
	if dups := len(jobs) - len(unique); dups > 0 {
		e.stats.coalesced.Add(int64(dups))
	}
	finish := func(i int, res *core.Result, err error) {
		for {
			done(i, res, err)
			if i = twin[i]; i == 0 {
				return
			}
		}
	}

	workers := min(e.workers, len(unique))
	if workers <= 1 {
		// Stay off the goroutine pool: at parallelism 1, handing each job to
		// a single worker over a channel raised the capacity-sweep
		// benchmark's CPU time per op by 17–20% (both orders of two
		// alternating runs), most likely from scheduler spinning on the
		// hand-off.
		for _, i := range unique {
			res, err := e.Run(ctx, jobs[i].Net, jobs[i].Cfg)
			finish(i, res, err)
		}
		return
	}
	next := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range next {
				res, err := e.Run(ctx, jobs[i].Net, jobs[i].Cfg)
				finish(i, res, err)
			}
		}()
	}
	dispatched := 0
dispatch:
	for _, i := range unique {
		select {
		case next <- i:
			dispatched++
		case <-ctx.Done():
			break dispatch
		}
	}
	close(next)
	for _, i := range unique[dispatched:] {
		// Identify which sweep points were abandoned: a batch error naming
		// only the context reason hides how far the dispatch got.
		finish(i, nil, fmt.Errorf("job %d abandoned before dispatch: %w", i, ctx.Err()))
	}
	wg.Wait()
}
