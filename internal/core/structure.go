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
// (memalloc.Trace), with each allocation's site in the trainer's loop, of
// whichever run trained — the run at the point's own capacity, or the oracle
// rerun when that point is untrainable. Price then evaluates the same
// configuration at any other capacity from that trace alone: a capacity at
// or above the trace's fit bound trains in O(1), any other is replayed. A
// fitting replay reuses the structure's Result wholesale. A failing one
// stops at the failing allocation, which a run at that capacity reaches by
// the same calls, so its error, free list and site are the run's failure.
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
	sites []site // each traced allocation's site, by its ordinal (Block.seq)
}

// Price evaluates cfg — the structure's configuration at any device
// capacity — and returns exactly what RunContext would, without simulating.
// An oracle request, or a capacity the trace fits, is the structure's
// Result. An untrainable one — the trace's first failing call, or no pool
// left after the classifier — is that failure wrapped around the
// structure's Result as the oracle demand report. The bool is always
// err == nil; it is kept for existing callers.
func (s *Structure) Price(ctx context.Context, net *dnn.Network, cfg Config) (*Result, bool, error) {
	if ctx != nil && ctx.Err() != nil {
		return nil, false, canceled(ctx)
	}
	cfg = cfg.WithDefaults()
	// The spec is the only part of validation that differs between the
	// capacities sharing a structure.
	if err := cfg.Spec.Validate(); err != nil {
		return nil, false, err
	}
	if !cfg.Oracle {
		// The classifier memory is allocated before the pool is sized and never
		// grows, so FrameworkBytes is the fw.Used() a run subtracts from the spec.
		pool := cfg.Spec.PoolBytes() - s.Res.FrameworkBytes
		if pool <= 0 {
			return untrainable(s.Res, cfg, classifierErr(s.Res.FrameworkBytes)), true, nil
		}
		if seq, oom, spans := s.trace.Failure(pool); oom != nil {
			at, err := s.sites[seq], error(&AllocFailure{Label: oom.Label, Err: oom, FreeSpans: spans})
			if at.layer >= 0 {
				err = at.passErr(net, -1, err)
			}
			if at.iter >= 0 {
				err = iterErr(int(at.iter), err)
			}
			return untrainable(s.Res, cfg, err), true, nil
		}
	}
	return s.Res.withOracle(cfg.Oracle), true, nil
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
	ctx, cfg, pol, err := prepare(ctx, net, cfg)
	if err != nil {
		return nil, nil, err
	}
	if !StructureShaped(cfg) {
		return nil, nil, fmt.Errorf("core: policy %q is not structure-shaped", pol.Name())
	}
	res, st, err := runStatic(ctx, net, cfg, pol, true)
	if err != nil {
		return nil, nil, err
	}
	return st, res, nil
}
