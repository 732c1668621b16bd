package memalloc

import (
	"sync"

	"vdnn/internal/sim"
)

// Allocation-trace recording for differential sweep evaluation.
//
// The executor's allocator call sequence — every Alloc, Free and Flush, with
// their simulated timestamps — is a pure function of the configuration's
// *structure* (network, policy, algorithms, schedule), never of the pool's
// capacity, as long as every allocation succeeds: capacity feeds back into
// the simulation only through allocation failure (and through LargestFree,
// which only greedy algorithm selection consults). A trace recorded at one
// capacity therefore decides every other capacity: a full simulation there
// succeeds, with an identical timeline, exactly when the recorded calls all
// succeed against a pool of that size. That equivalence is what lets the
// sweep engine price a capacity/batch sweep point without re-simulating.
//
// Most capacities need not even be replayed. One replay against an
// unbounded pool (capacity c0) yields two bounds:
//
//   - peak, the high-water of bytes in use. Usage depends only on the call
//     sequence and the rounded sizes, never on placement, so every capacity
//     below peak fails.
//   - fit = c0 − g, where g is the smallest largest-free-span seen right
//     after an Alloc. On the unbounded pool the largest span is always the
//     middle gap between the bottom arena (first fit, ascending) and the top
//     arena (big feature maps, last fit, descending). Shrinking the capacity
//     by Δ moves every top-arena block, hole and binned span down by Δ and
//     shrinks the middle gap by Δ; nothing else changes. First fit still
//     reaches the bottom holes before the gap, last fit still reaches the
//     top holes before it, the bins hold the same sizes, and no allocation
//     misses, so no bin flush happens. While the gap stays ≥ 0 after every
//     Alloc — that is, for Δ ≤ g — every placement is the unbounded run's,
//     shifted, so every capacity ≥ fit succeeds.
//
// Fits answers outside [peak, fit) from the bounds alone and replays only
// inside that band; Failure replays to the failing Alloc, as a run would.

type traceKind uint8

const (
	traceAlloc traceKind = iota
	traceFree
	traceFlush
)

// traceOp is one recorded pool call. For traceAlloc, ref is the index the
// resulting block is registered under and size is the *unrounded* request;
// for traceFree, ref names the block being freed.
type traceOp struct {
	op    traceKind
	kind  Kind
	t     sim.Time
	size  int64
	ref   int32
	label string
}

// Trace is a recorded allocator call sequence. Once recording ends it is
// read-only and safe to share: Fits may be called from several goroutines.
type Trace struct {
	ops    []traceOp
	blocks int32

	// The capacity bounds, computed on first use by one unbounded replay.
	bounds    sync.Once
	peak, fit int64
}

// unbounded is the capacity of the pool the bounds are computed against:
// far above any simulated device, so its middle gap is always its largest
// free span.
const unbounded = 1 << 62

// NewTraced creates a pool that records every Alloc, Free and Flush into tr,
// if non-nil, in call order, for Fits and Failure to decide other capacities.
func NewTraced(capacity int64, tr *Trace) *Pool {
	p := New(capacity)
	p.trace = tr
	return p
}

func (tr *Trace) recordAlloc(b *Block, t sim.Time, size int64, kind Kind, label string) {
	b.seq = tr.blocks
	tr.blocks++
	tr.ops = append(tr.ops, traceOp{op: traceAlloc, kind: kind, t: t, size: size, ref: b.seq, label: label})
}

func (tr *Trace) recordFree(b *Block, t sim.Time) {
	tr.ops = append(tr.ops, traceOp{op: traceFree, t: t, ref: b.seq})
}

func (tr *Trace) recordFlush(t sim.Time) {
	tr.ops = append(tr.ops, traceOp{op: traceFlush, t: t})
}

// Fits reports whether the recorded call sequence succeeds against a pool of
// the given capacity. Because the pool is a deterministic function of its
// call sequence, true proves a full simulation at this capacity would make
// exactly these calls and succeed; false proves one of its allocations
// fails. Capacities outside [peak, fit) are decided without a replay.
func (tr *Trace) Fits(capacity int64) bool {
	if peak, _ := tr.limits(); capacity <= 0 || capacity < peak {
		return false
	}
	_, err, _ := tr.Failure(capacity)
	return err == nil
}

// Failure replays the call sequence against a pool of the given capacity to
// its first failing Alloc and reports that call's ordinal among the Allocs
// (its Block.seq), its error and the pool's free spans right after it. It
// returns (-1, nil, nil) when no call fails: the capacity fits (from fit up
// without a replay), or it is not positive and no such pool exists.
func (tr *Trace) Failure(capacity int64) (seq int, err *OOMError, spans [][2]int64) {
	if _, fit := tr.limits(); capacity <= 0 || capacity >= fit {
		return -1, nil, nil
	}
	p, _, seq, err := tr.replay(capacity)
	if err != nil {
		spans = p.FreeSpans()
	}
	return seq, err, spans
}

// limits returns peak and fit, computed on first use by one unbounded replay.
func (tr *Trace) limits() (peak, fit int64) {
	tr.bounds.Do(func() {
		p, gap, _, _ := tr.replay(unbounded)
		tr.peak, tr.fit = p.peak, unbounded-gap
	})
	return tr.peak, tr.fit
}

// replay re-executes the recorded calls against a fresh pool of the given
// capacity until an Alloc fails. It returns the pool, the smallest
// largest-free-span seen right after an Alloc (the capacity if none), and the
// failing Alloc's ordinal and error (-1 and nil when every call succeeded).
func (tr *Trace) replay(capacity int64) (p *Pool, minFree int64, seq int, oom *OOMError) {
	p = New(capacity)
	p.metricsOff = true // the verdict needs no usage timeline
	minFree = capacity
	blocks := make([]*Block, tr.blocks)
	for i := range tr.ops {
		o := &tr.ops[i]
		switch o.op {
		case traceAlloc:
			b, err := p.Alloc(o.t, o.size, o.kind, o.label)
			if err != nil {
				return p, minFree, int(o.ref), err.(*OOMError)
			}
			blocks[o.ref] = b
			if m := p.free.MaxSize(); m < minFree {
				minFree = m
			}
		case traceFree:
			p.Free(blocks[o.ref], o.t)
		case traceFlush:
			p.Flush(o.t)
		}
	}
	return p, minFree, -1, nil
}
