package core

import (
	"context"
	"errors"
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
// selection only). BuildStructureAt therefore runs the configuration once —
// at its own capacity when it trains there, on an oracle-sized pool
// otherwise — while recording the allocator call sequence (memalloc.Trace);
// Price then evaluates the same configuration at any real capacity from that
// trace alone — no re-simulation — and reuses the structure's Result
// wholesale when the trace fits. Two bounds, computed once per trace by one
// replay against an unbounded pool, decide most capacities in O(1): below
// the trace's peak usage the point is untrainable, at or above its fit bound
// it trains; only a capacity inside [peak, fit) is replayed. An untrainable
// point re-runs the real attempt only to reproduce the exact failure chain,
// and reuses the structure as the oracle demand report runStatic would
// otherwise re-simulate.
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

// ValidateRun runs RunContext's full validation chain without simulating,
// so a caller can separate "invalid configuration" (must take the full path
// for the exact error) from "valid but maybe untrainable".
func ValidateRun(net *dnn.Network, cfg Config) error {
	_, err := validateConfig(net, cfg.WithDefaults())
	return err
}

// Structure is the capacity-independent stage of one configuration: the
// oracle-capacity Result plus the recorded allocator call sequence.
// Res is exactly what RunContext returns for the configuration with
// Oracle=true, at any device capacity — callers may serve it for oracle
// requests directly (it must not be mutated; clone before patching).
type Structure struct {
	Res   *Result
	trace *memalloc.Trace
}

// Price evaluates cfg — the structure's configuration at a real device
// capacity — by asking whether the recorded allocator trace fits it
// (memalloc.Trace.Fits: O(1) outside [peak, fit), a replay inside). Below
// the trace's peak that answer is certain without a replay, so such a point
// goes straight to the failing attempt below. The bool reports
// whether pricing applied; false means the caller must run the full path
// (the classifier-exceeds-capacity report needs the real failure chain).
// When pricing applies, the Result is byte-identical to runStatic's: the
// structure's Result with the Oracle flag patched on success, or — when the
// trace proves the point untrainable — the real attempt's exact failure
// wrapped around the structure's demand report.
func (s *Structure) Price(ctx context.Context, net *dnn.Network, cfg Config) (*Result, bool, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if ctx.Err() != nil {
		return nil, false, canceled(ctx)
	}
	cfg = cfg.WithDefaults()
	// The framework (classifier) memory is allocated before the pool is
	// sized and never grows afterward, so the structure's FrameworkBytes is
	// exactly the fw.Used() the real run would subtract from the spec.
	realCap := cfg.Spec.PoolBytes() - s.Res.FrameworkBytes
	if realCap <= 0 {
		return nil, false, nil
	}
	if s.trace.Fits(realCap) {
		r := *s.Res
		r.Oracle = cfg.Oracle
		return &r, true, nil
	}
	// Untrainable at this capacity. The failure's error chain carries
	// iteration/layer context the trace does not record, so run the real
	// attempt once for the exact failure — and serve the structure as the
	// oracle rerun runStatic would otherwise simulate a second time.
	pol, err := cfg.policyImpl()
	if err != nil {
		return nil, false, nil
	}
	plan, err := buildPlan(net, cfg, pol)
	if err != nil {
		return nil, false, nil
	}
	res, runErr := execute(ctx, net, cfg, pol, plan)
	if runErr == nil {
		// The trace and the run disagree — impossible by construction, but
		// the full run's result is authoritative either way.
		return res, true, nil
	}
	if errors.Is(runErr, ErrCanceled) {
		return nil, false, runErr
	}
	return untrainable(s.Res, cfg, runErr), true, nil
}

// BuildStructureAt simulates cfg at its configured device capacity while
// recording the allocator trace, yielding the sweep point's own Result and
// the capacity-independent Structure from a single simulation — for a
// trainable point the structure comes free with the first sweep point
// instead of costing a separate oracle run, because the simulation of a
// structure-shaped configuration is identical at every capacity it trains
// under. An Oracle configuration builds at oracle capacity. When the point
// is untrainable at its capacity the failure cuts the trace short, so the
// structure is built at oracle capacity instead — exactly the
// hypothetical-demand rerun runStatic would pay anyway — and the Result is
// the same untrainable report runStatic produces. cfg must be
// structure-shaped and valid.
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
	plan, err := buildPlan(net, cfg, pol)
	if err != nil {
		return nil, nil, err
	}
	tr := &memalloc.Trace{}
	res, runErr := execute(withAllocTrace(ctx, tr), net, cfg, pol, plan)
	if runErr == nil {
		oracle := *res
		oracle.Oracle = true
		return &Structure{Res: &oracle, trace: tr}, res, nil
	}
	if cfg.Oracle || errors.Is(runErr, ErrCanceled) {
		return nil, nil, runErr
	}
	oracleCfg := cfg
	oracleCfg.Oracle = true
	st, _, err := BuildStructureAt(ctx, net, oracleCfg)
	if err != nil {
		return nil, nil, err
	}
	return st, untrainable(st.Res, cfg, runErr), nil
}

// allocTraceKey carries a *memalloc.Trace through execute's context to the
// vDNN pool construction of a structure-shaped (single-device) run.
type allocTraceKey struct{}

func withAllocTrace(ctx context.Context, tr *memalloc.Trace) context.Context {
	return context.WithValue(ctx, allocTraceKey{}, tr)
}

func allocTraceFrom(ctx context.Context) *memalloc.Trace {
	if ctx == nil {
		return nil
	}
	tr, _ := ctx.Value(allocTraceKey{}).(*memalloc.Trace)
	return tr
}
