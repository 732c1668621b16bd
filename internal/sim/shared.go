package sim

import (
	"fmt"
	"math"
	"sort"
)

// SharedChannel models one direction of a shared interconnect resource — the
// uplink of a PCIe root complex or switch that several devices' links hang
// off. Unlike an Engine, which serializes its ops, a shared channel lets any
// number of transfers proceed concurrently and arbitrates its aggregate
// bandwidth among them.
//
// Arbitration is progressive filling in issue order: each transfer draws
// min(its own link rate, whatever aggregate bandwidth earlier-issued
// transfers left unreserved) over time, and reserves what it draws. A
// transfer issued earlier is therefore never slowed retroactively by a later
// arrival — which is what keeps the engine's one-pass analytic scheduling
// exact (an op's end time may already have been consumed as a dependency by
// the time the next op is issued). The conservation invariant — the sum of
// concurrent transfer throughputs never exceeds the channel's capacity — is
// what Validate checks and what the contention results rest on.
//
// An uncontended transfer (aggregate capacity never binding) completes in
// exactly bytes/maxBps seconds, the dedicated-link DMA time, so a topology
// whose root complex is never saturated reproduces dedicated-link schedules
// bit for bit.
type SharedChannel struct {
	Name string

	capacity float64 // aggregate bandwidth, bytes/sec

	// Reservation profile: reserved(t) is piecewise constant, changing only
	// at the breakpoints. edges[i].t are strictly increasing; edges[i].d is
	// the change in reserved bandwidth at that instant.
	edges []bwEdge

	reservations int // transfers arbitrated so far (metrics/tests)
}

type bwEdge struct {
	t Time
	d float64
}

// NewSharedChannel creates a shared channel with the given aggregate
// bandwidth in bytes/sec.
func NewSharedChannel(name string, capacityBps float64) *SharedChannel {
	if capacityBps <= 0 {
		panic(fmt.Sprintf("sim: shared channel %q has non-positive capacity", name))
	}
	return &SharedChannel{Name: name, capacity: capacityBps}
}

// Reservations returns how many transfers the channel has arbitrated.
func (c *SharedChannel) Reservations() int { return c.reservations }

// reservedAt returns the reserved bandwidth immediately at-or-after time t
// and the index of the first edge strictly after t.
func (c *SharedChannel) reservedAt(t Time) (float64, int) {
	var r float64
	i := 0
	for ; i < len(c.edges) && c.edges[i].t <= t; i++ {
		r += c.edges[i].d
	}
	return r, i
}

// addEdge merges a bandwidth delta into the profile at time t.
func (c *SharedChannel) addEdge(t Time, d float64) {
	i := sort.Search(len(c.edges), func(i int) bool { return c.edges[i].t >= t })
	if i < len(c.edges) && c.edges[i].t == t {
		c.edges[i].d += d
		return
	}
	c.edges = append(c.edges, bwEdge{})
	copy(c.edges[i+1:], c.edges[i:])
	c.edges[i] = bwEdge{t: t, d: d}
}

// Reserve arbitrates a transfer of n bytes starting at start, bounded by the
// issuing device's own link rate maxBps, and returns its completion time.
// The bandwidth actually drawn — min(maxBps, capacity − already reserved),
// segment by segment — is reserved for the transfer's lifetime, so later
// reservations see only what this one left.
func (c *SharedChannel) Reserve(start Time, n int64, maxBps float64) Time {
	if n < 0 {
		panic("sim: negative transfer size")
	}
	if maxBps <= 0 {
		panic("sim: non-positive transfer rate")
	}
	if n == 0 {
		return start
	}
	c.reservations++

	// A device link can be wider than the shared uplink; the channel is the
	// binding resource either way.
	maxBps = math.Min(maxBps, c.capacity)

	// Fast path: nothing reserved at or after start — the transfer runs at
	// its own link rate, the dedicated-link arithmetic.
	reserved, idx := c.reservedAt(start)
	if reserved == 0 && idx == len(c.edges) {
		end := start + Time(float64(n)/maxBps*1e9)
		if end == start {
			end = start + 1 // a non-empty transfer takes at least one tick
		}
		c.addEdge(start, maxBps)
		c.addEdge(end, -maxBps)
		return end
	}

	remaining := float64(n)
	t := start
	type piece struct {
		from, to Time
		rate     float64
	}
	var pieces []piece
	for remaining > 0 {
		avail := c.capacity - reserved
		if avail < 0 {
			avail = 0
		}
		rate := math.Min(maxBps, avail)
		// Segment extends to the next breakpoint (or forever).
		segEnd := Time(math.MaxInt64)
		if idx < len(c.edges) {
			segEnd = c.edges[idx].t
		}
		if rate > 0 {
			finish := t + Time(remaining/rate*1e9)
			if finish <= t {
				finish = t + 1
			}
			if finish <= segEnd {
				pieces = append(pieces, piece{t, finish, rate})
				t = finish
				remaining = 0
				break
			}
			dur := segEnd - t
			pieces = append(pieces, piece{t, segEnd, rate})
			remaining -= rate * dur.Seconds()
			if remaining < 0 {
				remaining = 0
			}
		} else if segEnd == Time(math.MaxInt64) {
			// Fully reserved forever cannot happen: every reservation ends.
			panic(fmt.Sprintf("sim: shared channel %q starved a transfer", c.Name))
		}
		t = segEnd
		for idx < len(c.edges) && c.edges[idx].t == segEnd {
			reserved += c.edges[idx].d
			idx++
		}
	}
	for _, p := range pieces {
		if p.rate <= 0 || p.to <= p.from {
			continue
		}
		c.addEdge(p.from, p.rate)
		c.addEdge(p.to, -p.rate)
	}
	return t
}

// Validate checks the conservation invariant: at no instant does the sum of
// reserved bandwidth exceed the channel's capacity (beyond float slack).
func (c *SharedChannel) Validate() error {
	const slack = 1e-6
	var r float64
	for _, e := range c.edges {
		r += e.d
		if r > c.capacity*(1+slack) {
			return fmt.Errorf("sim: shared channel %q oversubscribed: %.0f reserved of %.0f at t=%v",
				c.Name, r, c.capacity, e.t)
		}
	}
	return nil
}

// IssueTransfer schedules a DMA transfer of n bytes on engine e within
// stream s, drawing bandwidth from shared channel c (which may be nil for a
// dedicated link). The op's duration is not fixed up front: it is setup
// latency plus however long the channel's arbitration takes to move n bytes
// at up to maxBps — so concurrent transfers on one channel stretch each
// other exactly as far as the shared capacity requires, and an uncontended
// transfer matches the dedicated-link time. Start-time rules are those of
// Issue (stream order, dependencies, engine availability, host issue time).
func (tl *Timeline) IssueTransfer(o *Op, s *Stream, e *Engine, c *SharedChannel, n int64, maxBps float64, setup Time, deps ...*Op) *Op {
	if n < 0 {
		panic(fmt.Sprintf("sim: transfer %q has negative size", o.Label))
	}
	start := tl.startTime(o, s, e, deps)
	var end Time
	if n == 0 {
		end = start
	} else if c == nil {
		end = start + setup + Time(float64(n)/maxBps*1e9)
	} else {
		end = c.Reserve(start+setup, n, maxBps)
	}
	o.Start = start
	o.End = end
	o.DurationT = end - start
	tl.commit(o, s, e)
	return o
}

// startTime computes when an op may start: stream program order, explicit
// dependencies, engine availability and the host's issue time, recording the
// dependency edges on the op.
func (tl *Timeline) startTime(o *Op, s *Stream, e *Engine, deps []*Op) Time {
	o.deps = o.depbuf[:0]
	start := tl.host
	if s.last != nil {
		o.deps = append(o.deps, s.last)
		if s.last.End > start {
			start = s.last.End
		}
	}
	for _, d := range deps {
		if d == nil {
			continue
		}
		o.deps = append(o.deps, d)
		if d.End > start {
			start = d.End
		}
	}
	if e.free > start {
		start = e.free
	}
	return start
}

// commit registers a scheduled op with its engine, stream and the timeline,
// charging the host's launch overhead.
func (tl *Timeline) commit(o *Op, s *Stream, e *Engine) {
	o.ID = len(tl.ops)
	e.free = o.End
	e.ops = append(e.ops, o)
	s.last = o
	tl.ops = append(tl.ops, o)
	tl.host += tl.LaunchOverhead
}
