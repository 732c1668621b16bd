package core

import (
	"context"
	"fmt"

	"vdnn/internal/dnn"
	"vdnn/internal/memalloc"
)

// Differential sweep evaluation: the structure/pricing split.
//
// Sweep points that differ only in device memory capacity re-derive an
// identical *structure* — network build, execution plan, offload/codec
// decisions, conv algorithm finds, and the whole simulated timeline — because
// capacity feeds back into a static single-device simulation in exactly two
// ways: through allocation failure, and through LargestFree (greedy algorithm
// selection only). BuildStructureAt therefore runs the configuration once
// through runStatic while recording the allocator call sequence
// (memalloc.Trace) of whichever run trained — the run at the point's own
// capacity, or the oracle rerun when that point is untrainable. Price then
// evaluates the same configuration at any other capacity from that trace
// alone and reuses the structure's Result wholesale when the trace fits. Two
// bounds, computed once per trace by one replay against an unbounded pool,
// decide most capacities in O(1): below the trace's peak usage the point is
// untrainable, at or above its fit bound it trains; only a capacity inside
// [peak, fit) is replayed. An untrainable point goes back through runStatic,
// which runs the real attempt only for its exact failure chain and takes the
// structure's Result as the oracle demand report instead of re-simulating it.
//
// Everything here is exact, never approximate: a priced Result is
// reflect.DeepEqual to the full simulation's (the sweep engine's equivalence
// tests enforce it). Configurations outside the eligible shape — profilers,
// custom policies, greedy algorithm selection, multi-device, pipeline — fall
// back to the full path.

// StructureShaped reports whether a normalized configuration's simulation is
// capacity-independent apart from allocation success — the eligibility gate
// for differential evaluation. The shape excludes:
//
//   - custom policies (their decision functions are opaque),
//   - profiling policies (vDNN-dyn simulates capacity-dependent cascades),
//   - greedy algorithm selection (it consults the pool's free space),
//   - data-parallel and pipeline runs (several pools per run).
//
// Debug, CaptureSchedule, compression, page migration, prefetch modes and
// weight offloading are all capacity-independent and stay eligible.
func StructureShaped(cfg Config) bool {
	if cfg.Custom != nil || cfg.Policy == VDNNDyn {
		return false
	}
	if cfg.Algo == GreedyAlgo {
		return false
	}
	if cfg.Devices > 1 || cfg.Stages > 1 {
		return false
	}
	return true
}

// Structure is the capacity-independent stage of one configuration: the
// oracle-capacity Result plus the recorded allocator call sequence.
// Res is exactly what RunContext returns for the configuration with
// Oracle=true, at any device capacity; it is shared and must not be mutated.
type Structure struct {
	Res   *Result
	trace *memalloc.Trace
}

// Price evaluates cfg — the structure's configuration at any device
// capacity — and returns exactly what RunContext would. An oracle request
// is the structure's Result; a real capacity asks whether the recorded
// allocator trace fits the pool left after the classifier
// (memalloc.Trace.Fits: O(1) outside [peak, fit), a replay inside) and
// reuses the structure's Result when it does. Otherwise the point is
// untrainable — a pool at or below the classifier bytes included — and
// runStatic runs the real attempt once for the exact failure chain, wrapped
// around the structure's Result as the oracle demand report. The bool is
// always err == nil; it is kept for existing callers.
func (s *Structure) Price(ctx context.Context, net *dnn.Network, cfg Config) (*Result, bool, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if ctx.Err() != nil {
		return nil, false, canceled(ctx)
	}
	cfg = cfg.WithDefaults()
	// The spec is the only part of validation that differs between the
	// capacities sharing a structure.
	if err := cfg.Spec.Validate(); err != nil {
		return nil, false, err
	}
	// The framework (classifier) memory is allocated before the pool is
	// sized and never grows afterward, so the structure's FrameworkBytes is
	// exactly the fw.Used() the real run would subtract from the spec.
	if cfg.Oracle || s.trace.Fits(cfg.Spec.PoolBytes()-s.Res.FrameworkBytes) {
		r := *s.Res
		r.Oracle = cfg.Oracle
		return &r, true, nil
	}
	pol, err := cfg.policyImpl()
	if err != nil {
		return nil, false, err
	}
	res, err := runStatic(ctx, net, cfg, pol, s)
	return res, err == nil, err
}

// BuildStructureAt simulates cfg at its configured device capacity while
// recording the allocator trace, yielding the sweep point's own Result and
// the capacity-independent Structure from a single simulation when the
// point trains: the simulation of a structure-shaped configuration is
// identical at every capacity it trains under. An untrainable point costs
// exactly what RunContext pays — the failing attempt plus the oracle rerun,
// which then records the structure — and its Result is RunContext's
// untrainable report. cfg must be structure-shaped and valid.
func BuildStructureAt(ctx context.Context, net *dnn.Network, cfg Config) (*Structure, *Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if ctx.Err() != nil {
		return nil, nil, canceled(ctx)
	}
	cfg = cfg.WithDefaults()
	pol, err := validateConfig(net, cfg)
	if err != nil {
		return nil, nil, err
	}
	if !StructureShaped(cfg) {
		return nil, nil, fmt.Errorf("core: policy %q is not structure-shaped", pol.Name())
	}
	st := &Structure{}
	res, err := runStatic(ctx, net, cfg, pol, st)
	if err != nil {
		return nil, nil, err
	}
	return st, res, nil
}
