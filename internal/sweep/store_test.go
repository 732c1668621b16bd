package sweep

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"vdnn/internal/core"
	"vdnn/internal/dnn"
	"vdnn/internal/gpu"
	"vdnn/internal/networks"
	"vdnn/internal/store"
)

// capacitySweep is a structure-shared sweep: one configuration at several
// device memory capacities, the differential path's best case.
func capacitySweep(net *dnn.Network, n int) []Job {
	jobs := make([]Job, 0, n)
	for i := 0; i < n; i++ {
		spec := gpu.TitanX()
		spec.MemBytes = int64(2+i) << 30
		jobs = append(jobs, Job{Net: net, Cfg: core.Config{Spec: spec, Policy: core.VDNNAll}})
	}
	return jobs
}

// TestStoreWarmStart is the restart scenario in miniature: a second engine
// (fresh in-memory cache, rebuilt network graph — a new process) pointed at
// the same store directory must serve the whole sweep from disk, with zero
// simulations and bit-identical results.
func TestStoreWarmStart(t *testing.T) {
	dir := t.TempDir()
	const n = 4

	st1, err := store.Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	e1 := NewEngine(2)
	e1.SetStore(st1)
	cold, err := e1.RunAll(context.Background(), capacitySweep(networks.AlexNet(32), n))
	if err != nil {
		t.Fatalf("cold RunAll: %v", err)
	}
	if s := e1.Stats(); s.Simulations != n {
		t.Fatalf("cold engine stats = %+v, want %d simulations", s, n)
	}
	if s := st1.Stats(); s.Writes != n || s.Hits != 0 {
		t.Fatalf("cold store stats = %+v, want %d writes, 0 hits", s, n)
	}

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	e2 := NewEngine(2)
	e2.SetStore(st2)
	warm, err := e2.RunAll(context.Background(), capacitySweep(networks.AlexNet(32), n))
	if err != nil {
		t.Fatalf("warm RunAll: %v", err)
	}
	if s := e2.Stats(); s.Simulations != 0 || s.Structures != 0 || s.Priced != 0 {
		t.Fatalf("warm engine stats = %+v, want zero simulations/structures/priced", s)
	}
	if s := st2.Stats(); s.Hits != n {
		t.Fatalf("warm store stats = %+v, want %d hits", s, n)
	}
	for i := range cold {
		if !reflect.DeepEqual(cold[i], warm[i]) {
			t.Errorf("job %d: store-served result differs from simulated one", i)
		}
	}
}

// TestStoreStructureProbesNotPersisted checks that the store holds requests,
// never structures: a capacity sweep — an oracle request at 1 TiB among its
// points — writes exactly one record per point, and a second engine over the
// same directory, served those points from disk, still builds a live
// structure to price the capacities the store has not seen. A structure's
// allocator trace cannot cross processes.
func TestStoreStructureProbesNotPersisted(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	net := networks.AlexNet(32)
	const n = 3
	jobs := capacitySweep(net, n+2)
	oracle := jobs[0]
	oracle.Cfg.Spec = oracle.Cfg.Spec.WithMemory(1 << 40)
	oracle.Cfg.Oracle = true
	seen := append(jobs[:n:n], oracle)

	st1, err := store.Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	e1 := NewEngine(1)
	e1.SetStore(st1)
	if _, err := e1.RunAll(ctx, seen); err != nil {
		t.Fatalf("cold RunAll: %v", err)
	}
	if s := e1.Stats(); s.Structures != 1 {
		t.Fatalf("cold engine stats = %+v, want 1 structure", s)
	}
	if s := st1.Stats(); s.Writes != int64(len(seen)) || s.Records != int64(len(seen)) {
		t.Errorf("cold store stats = %+v, want %d writes and records, one per point", s, len(seen))
	}

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	e2 := NewEngine(1)
	e2.SetStore(st2)
	if _, err := e2.RunAll(ctx, append(seen, jobs[n:]...)); err != nil {
		t.Fatalf("warm RunAll: %v", err)
	}
	unseen := int64(len(jobs) - n)
	if s := e2.Stats(); s.Simulations != unseen || s.Structures != 1 || s.Priced != unseen-1 {
		t.Errorf("warm engine stats = %+v, want %d simulations, 1 structure, %d priced", s, unseen, unseen-1)
	}
	if s := st2.Stats(); s.Hits != int64(len(seen)) || s.Writes != unseen {
		t.Errorf("warm store stats = %+v, want %d hits, %d writes", s, len(seen), unseen)
	}
}

// countingStore wraps a ResultStore and records which calls reach it.
type countingStore struct {
	mu     sync.Mutex
	loads  int
	saves  int
	inner  ResultStore
	filter func(cfg core.Config) // optional assertion on every call
}

func (c *countingStore) Load(net *dnn.Network, cfg core.Config) (*core.Result, bool) {
	c.mu.Lock()
	c.loads++
	c.mu.Unlock()
	if c.filter != nil {
		c.filter(cfg)
	}
	if c.inner == nil {
		return nil, false
	}
	return c.inner.Load(net, cfg)
}

func (c *countingStore) Save(net *dnn.Network, cfg core.Config, res *core.Result) {
	c.mu.Lock()
	c.saves++
	c.mu.Unlock()
	if c.inner != nil {
		c.inner.Save(net, cfg, res)
	}
}

// TestStoreSkipsFailedSimulations: an errored computation must never be
// written through (a chaos fault is transient; persisting it would replay
// the failure forever).
func TestStoreSkipsFailedSimulations(t *testing.T) {
	cs := &countingStore{}
	e := NewEngine(1)
	e.SetStore(cs)
	e.SetChaosHook(func(string) error { return context.DeadlineExceeded })
	net := networks.AlexNet(32)
	if _, err := e.Run(context.Background(), net, core.Config{Spec: gpu.TitanX(), Policy: core.VDNNAll}); err == nil {
		t.Fatalf("injected fault did not surface")
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cs.saves != 0 {
		t.Errorf("failed simulation written through: %d saves", cs.saves)
	}
	if cs.loads != 1 {
		t.Errorf("loads = %d, want 1 (read-through precedes the fault point)", cs.loads)
	}
}

// TestStoreServesNestedProfilingCandidates: the dynamic policy's profiling
// sub-simulations resolve through the same engine path, so a warm store
// eliminates them too.
func TestStoreServesNestedProfilingCandidates(t *testing.T) {
	dir := t.TempDir()
	st1, err := store.Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	e1 := NewEngine(2)
	e1.SetStore(st1)
	net := networks.AlexNet(32)
	cfg := core.Config{Spec: gpu.TitanX(), Policy: core.VDNNDyn}
	cold, err := e1.Run(context.Background(), net, cfg)
	if err != nil {
		t.Fatalf("cold Run: %v", err)
	}
	if st1.Stats().Writes < 2 {
		// The dyn cascade plus its winning candidate: at least the top-level
		// result and one candidate must have been persisted.
		t.Fatalf("expected candidate results persisted too: %+v", st1.Stats())
	}

	st2, err := store.Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	e2 := NewEngine(2)
	e2.SetStore(st2)
	warm, err := e2.Run(context.Background(), networks.AlexNet(32), cfg)
	if err != nil {
		t.Fatalf("warm Run: %v", err)
	}
	if s := e2.Stats(); s.Simulations != 0 {
		t.Errorf("warm dyn run simulated: %+v", s)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Errorf("store-served dyn result differs from simulated one")
	}
}
