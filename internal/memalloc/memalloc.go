// Package memalloc implements the device-side memory pool vDNN allocates
// from. It mirrors NVIDIA's cnmem library, which the paper adopts to avoid
// the device-wide synchronization of cudaMalloc/cudaFree (Section III-B):
// the pool is sized once at startup to the GPU's usable capacity, and all
// (de)allocations are served from it asynchronously.
//
// The allocator is a classic address-ordered suballocator with block
// splitting and free-range coalescing, so fragmentation behaves like the
// real thing. Free ranges live in a size-augmented address tree (freetree.go)
// that answers first-fit and last-fit queries in O(log n) instead of the
// linear freelist scan — the allocator is on the hot path of every simulated
// kernel launch. Allocations and frees carry simulated timestamps; a free
// may be scheduled for a future point (the completion time of the op that
// last reads the buffer), and is applied before any later allocation. The
// pool records a complete usage timeline from which peak usage,
// time-weighted average usage, and the per-kind breakdown that the paper's
// Figure 4 plots are all derived.
package memalloc

import (
	"fmt"
	"sort"

	"vdnn/internal/sim"
)

// Kind tags an allocation with its functional role, matching the memory
// breakdown categories of the paper's Figure 4.
type Kind int

const (
	KindWeights    Kind = iota // layer weights and biases
	KindWeightGrad             // weight gradients
	KindFeatureMap             // X/Y feature maps
	KindGradMap                // dX/dY gradient maps
	KindWorkspace              // cuDNN convolution workspace
	KindOther                  // dropout masks, loss scratch, ...
	numKinds
)

var kindNames = [...]string{"weights", "weight-grads", "feature-maps", "gradient-maps", "workspace", "other"}

func (k Kind) String() string {
	if k >= 0 && int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Kinds lists all allocation kinds in display order.
func Kinds() []Kind {
	ks := make([]Kind, numKinds)
	for i := range ks {
		ks[i] = Kind(i)
	}
	return ks
}

// Block is a live allocation.
type Block struct {
	Addr, Size int64
	Kind       Kind
	Label      string
	freed      bool
	seq        int32 // registration index in the pool's trace, if recording
}

// OOMError reports an allocation failure: the request, what was in use, and
// whether the failure was capacity or fragmentation.
type OOMError struct {
	Label         string
	Need          int64
	Used          int64
	Capacity      int64
	LargestFree   int64
	Fragmentation bool // true if total free space sufficed but no range did
}

func (e *OOMError) Error() string {
	cause := "out of memory"
	if e.Fragmentation {
		cause = "fragmentation"
	}
	return fmt.Sprintf("memalloc: %s allocating %d bytes for %q (used %d of %d, largest free %d)",
		cause, e.Need, e.Label, e.Used, e.Capacity, e.LargestFree)
}

type span struct{ addr, size int64 }

type pendingFree struct {
	t sim.Time
	b *Block
}

// freeHeap is a binary min-heap on time. It hand-rolls push/pop with the
// exact sift arithmetic of container/heap — same comparisons, same swaps, so
// the pop order of equal timestamps is unchanged — because the interface
// boxing of heap.Push allocated on every scheduled free, squarely on the
// simulation hot path.
type freeHeap []pendingFree

func (h *freeHeap) push(pf pendingFree) {
	*h = append(*h, pf)
	// Sift up.
	s := *h
	for j := len(s) - 1; ; {
		i := (j - 1) / 2
		if i == j || !(s[j].t < s[i].t) {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

func (h *freeHeap) pop() pendingFree {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	// Sift down over s[:n].
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && s[j2].t < s[j].t {
			j = j2
		}
		if !(s[j].t < s[i].t) {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	x := s[n]
	*h = s[:n]
	return x
}

// usageEvent is one step in the usage timeline.
type usageEvent struct {
	t     sim.Time
	delta int64
	kind  Kind
	label string
}

// bigBlockThreshold separates the two allocation arenas: feature maps at
// least this large are carved from the top of the address space
// (descending); everything else — weights, gradient maps, workspaces, small
// maps — from the bottom (ascending). Feature maps follow the forward pass's
// descending-size pattern and are re-fetched in the same sizes during
// backward, so keeping them in their own arena lets their holes be
// exchanged exactly; gradient maps churn only during backward and pack
// cleanly above the weights. This segregation is what lets the repetitive
// per-iteration allocation pattern of DNN training run at >90% pool
// occupancy without fragmentation-induced OOM, as the paper's prototype
// evidently did on VGG-16 (256).
const bigBlockThreshold = 64 << 20

// Pool is the device memory pool.
type Pool struct {
	capacity int64
	align    int64
	free     *freeTree // free ranges indexed by address, augmented by size
	used     int64
	byKind   [numKinds]int64
	events   []usageEvent
	pending  freeHeap
	lastTime sim.Time

	// bins caches freed feature-map blocks by exact size, uncoalesced, so
	// the backward pass's prefetches and the next iteration's allocations
	// reuse the very holes the forward pass left (the caching-allocator
	// strategy of cnmem and of PyTorch's CUDA allocator). A miss that the
	// coalesced freelist cannot serve flushes the bins and retries.
	bins map[int64][]span

	peak       int64
	peakTime   sim.Time
	peakByKind [numKinds]int64

	// trace, when non-nil, records every Alloc/Free/Flush for differential
	// pricing (see trace.go). metricsOff suppresses the usage timeline for
	// replay pools, whose only outputs are the verdict and the bounds.
	trace      *Trace
	metricsOff bool

	// blockArena batches Block allocations in chunks. A full chunk is simply
	// replaced — outstanding *Block pointers keep the old chunk alive.
	blockArena []Block
}

const blockArenaChunk = 128

func (p *Pool) newBlock(addr, size int64, kind Kind, label string) *Block {
	if len(p.blockArena) == cap(p.blockArena) {
		p.blockArena = make([]Block, 0, blockArenaChunk)
	}
	p.blockArena = append(p.blockArena, Block{Addr: addr, Size: size, Kind: kind, Label: label})
	return &p.blockArena[len(p.blockArena)-1]
}

// New creates a pool of the given capacity. Allocations are rounded up to
// 512-byte alignment, cnmem's granularity.
func New(capacity int64) *Pool {
	if capacity <= 0 {
		panic("memalloc: non-positive capacity")
	}
	p := &Pool{
		capacity: capacity,
		align:    512,
		free:     newFreeTree(),
		bins:     map[int64][]span{},
	}
	p.free.Insert(0, capacity)
	return p
}

// Capacity returns the pool size in bytes.
func (p *Pool) Capacity() int64 { return p.capacity }

// Used returns bytes currently allocated (after applying frees up to the
// last observed time).
func (p *Pool) Used() int64 { return p.used }

// UsedByKind returns currently allocated bytes of one kind.
func (p *Pool) UsedByKind(k Kind) int64 { return p.byKind[k] }

func (p *Pool) roundUp(n int64) int64 {
	if n <= 0 {
		return p.align
	}
	return (n + p.align - 1) / p.align * p.align
}

// applyPending applies all scheduled frees with time <= t, in time order.
func (p *Pool) applyPending(t sim.Time) {
	for len(p.pending) > 0 && p.pending[0].t <= t {
		pf := p.pending.pop()
		p.release(pf.b, pf.t)
	}
}

// Alloc reserves size bytes at simulated time t. Alloc times must be
// non-decreasing (host time is monotone). On failure the pool is unchanged
// and an *OOMError is returned.
func (p *Pool) Alloc(t sim.Time, size int64, kind Kind, label string) (*Block, error) {
	if t < p.lastTime {
		panic(fmt.Sprintf("memalloc: allocation time went backward (%v < %v)", t, p.lastTime))
	}
	p.lastTime = t
	p.applyPending(t)
	n := p.roundUp(size)

	// Two-ended heap: big feature maps take the highest-addressed fitting
	// span and carve from its top; everything else takes the
	// lowest-addressed fitting span (first fit) and carves from its bottom.
	// The populations stay segregated at opposite ends of the address space.
	// Big feature maps first try the size bin for exact hole reuse. Both fit
	// queries are O(log n) against the size-augmented free tree.
	big := kind == KindFeatureMap && n >= bigBlockThreshold
	var b *Block
	if big {
		if cached := p.bins[n]; len(cached) > 0 {
			sp := cached[len(cached)-1]
			p.bins[n] = cached[:len(cached)-1]
			b = p.newBlock(sp.addr, n, kind, label)
		}
	}
	for b == nil {
		var addr, size int64
		var ok bool
		if big {
			addr, size, ok = p.free.LastFit(n)
		} else {
			addr, size, ok = p.free.FirstFit(n)
		}
		if !ok {
			if p.flushBins() {
				continue // coalesced cached holes; retry once more
			}
			total := p.free.Total()
			return nil, &OOMError{
				Label: label, Need: n, Used: p.used, Capacity: p.capacity,
				LargestFree: p.free.MaxSize(), Fragmentation: total >= n,
			}
		}
		p.free.Remove(addr)
		if big {
			b = p.newBlock(addr+size-n, n, kind, label)
			if size > n {
				p.free.Insert(addr, size-n)
			}
		} else {
			b = p.newBlock(addr, n, kind, label)
			if size > n {
				p.free.Insert(addr+n, size-n)
			}
		}
	}
	p.used += n
	p.byKind[kind] += n
	if !p.metricsOff {
		p.events = append(p.events, usageEvent{t, n, kind, label})
	}
	if p.used > p.peak {
		p.peak = p.used
		p.peakTime = t
		p.peakByKind = p.byKind
	}
	if p.trace != nil {
		p.trace.recordAlloc(b, t, size, kind, label)
	}
	return b, nil
}

// Free schedules block b to be released at simulated time t. If t is not
// later than the last allocation time the free is applied immediately;
// otherwise it is applied before the next allocation whose time reaches t.
// Freeing a block twice panics (it is always an executor bug).
func (p *Pool) Free(b *Block, t sim.Time) {
	if b == nil {
		return
	}
	if b.freed {
		panic(fmt.Sprintf("memalloc: double free of %q", b.Label))
	}
	b.freed = true
	if p.trace != nil {
		p.trace.recordFree(b, t)
	}
	if t <= p.lastTime {
		p.release(b, t)
		return
	}
	p.pending.push(pendingFree{t, b})
}

// flushBins returns every cached hole to the coalescing freelist. Reports
// whether anything was flushed.
func (p *Pool) flushBins() bool {
	any := false
	for size, spans := range p.bins {
		for _, sp := range spans {
			p.insertFree(sp)
			any = true
		}
		delete(p.bins, size)
	}
	return any
}

// release returns the block's range to the free structures: cached big
// feature maps go to their size bin, everything else to the coalescing
// freelist.
func (p *Pool) release(b *Block, t sim.Time) {
	p.used -= b.Size
	p.byKind[b.Kind] -= b.Size
	if !p.metricsOff {
		p.events = append(p.events, usageEvent{t, -b.Size, b.Kind, b.Label})
	}
	if b.Kind == KindFeatureMap && b.Size >= bigBlockThreshold {
		p.bins[b.Size] = append(p.bins[b.Size], span{b.Addr, b.Size})
		return
	}
	p.insertFree(span{b.Addr, b.Size})
}

// insertFree merges one span into the free tree, coalescing with the
// adjacent spans when they abut.
func (p *Pool) insertFree(sp span) {
	if paddr, psize, ok := p.free.Pred(sp.addr); ok && paddr+psize == sp.addr {
		p.free.Remove(paddr)
		sp.addr = paddr
		sp.size += psize
	}
	if saddr, ssize, ok := p.free.Succ(sp.addr); ok && sp.addr+sp.size == saddr {
		p.free.Remove(saddr)
		sp.size += ssize
	}
	p.free.Insert(sp.addr, sp.size)
}

// Flush applies every scheduled free with time <= t.
func (p *Pool) Flush(t sim.Time) {
	if p.trace != nil {
		p.trace.recordFlush(t)
	}
	if t > p.lastTime {
		p.lastTime = t
	}
	p.applyPending(t)
}

func (p *Pool) FreeRanges() int {
	p.flushBins()
	return p.free.Count()
}

// LargestFree applies pending frees up to time t and returns the largest
// contiguous free range (conservatively: cached bins count individually,
// without simulating the coalescing a flush could achieve). The dynamic
// vDNN policy uses this to decide whether a layer's performance-optimal
// workspace "will overflow the GPU memory budget" (Section III-C).
func (p *Pool) LargestFree(t sim.Time) int64 {
	if t > p.lastTime {
		p.lastTime = t
	}
	p.applyPending(t)
	largest := p.free.MaxSize()
	for size := range p.bins {
		if size > largest && len(p.bins[size]) > 0 {
			largest = size
		}
	}
	return largest
}

// FreeRanges returns the number of distinct free ranges after returning all
// cached holes to the freelist (a fragmentation indicator used by tests).

// Stats summarizes the usage timeline of a pool over a window.
type Stats struct {
	Peak       int64
	PeakTime   sim.Time
	Avg        int64 // time-weighted average over the window
	PeakByKind map[Kind]int64
}

// Measure integrates the usage timeline over [start, end) and returns peak
// and time-weighted average usage over that window. Events are applied in
// time order, which makes the result exact even when frees were scheduled
// out of order relative to allocations.
func (p *Pool) Measure(start, end sim.Time) Stats {
	evs := make([]usageEvent, len(p.events))
	copy(evs, p.events)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].t < evs[j].t })

	st := Stats{PeakByKind: map[Kind]int64{}}
	var cur int64
	var curByKind [numKinds]int64
	snap := func(t sim.Time) {
		if cur > st.Peak {
			st.Peak = cur
			st.PeakTime = t
			for k := Kind(0); k < numKinds; k++ {
				st.PeakByKind[k] = curByKind[k]
			}
		}
	}
	i := 0
	// Usage carried into the window counts toward its peak.
	for ; i < len(evs) && evs[i].t < start; i++ {
		cur += evs[i].delta
		curByKind[evs[i].kind] += evs[i].delta
	}
	snap(start)
	var energy float64 // byte-nanoseconds
	cursor := start
	for ; i < len(evs) && evs[i].t <= end; i++ {
		if evs[i].t > cursor {
			energy += float64(cur) * float64(evs[i].t-cursor)
			cursor = evs[i].t
		}
		cur += evs[i].delta
		curByKind[evs[i].kind] += evs[i].delta
		snap(evs[i].t)
	}
	if end > cursor {
		energy += float64(cur) * float64(end-cursor)
	}
	if end > start {
		st.Avg = int64(energy / float64(end-start))
	}
	return st
}

// FreeSpans returns a copy of the current free ranges (debugging aid).
func (p *Pool) FreeSpans() [][2]int64 {
	out := make([][2]int64, 0, p.free.Count())
	p.free.Walk(func(addr, size int64) {
		out = append(out, [2]int64{addr, size})
	})
	return out
}

// SnapshotAt reconstructs the live allocation set at time t (aggregated by
// label), a debugging aid for attributing usage peaks.
func (p *Pool) SnapshotAt(t sim.Time) map[string]int64 {
	evs := make([]usageEvent, len(p.events))
	copy(evs, p.events)
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].t < evs[j].t })
	live := map[string]int64{}
	for _, e := range evs {
		if e.t > t {
			break
		}
		live[e.label] += e.delta
		if live[e.label] == 0 {
			delete(live, e.label)
		}
	}
	return live
}

// MeasureAll integrates over the full event span.
func (p *Pool) MeasureAll() Stats {
	if len(p.events) == 0 {
		return Stats{PeakByKind: map[Kind]int64{}}
	}
	evs := p.events
	minT, maxT := evs[0].t, evs[0].t
	for _, e := range evs {
		if e.t < minT {
			minT = e.t
		}
		if e.t > maxT {
			maxT = e.t
		}
	}
	return p.Measure(minT, maxT+1)
}
