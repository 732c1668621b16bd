// Command perfbench is vdnn's benchmark: it drives one workload in-process
// for a fixed wall-clock budget, checks every output, and prints one JSON
// result line.
//
//	bash perfbench/run.sh --workload capacity-sweep --seed 1 --seconds 10 --trace 0
//
// With -trace 0 the result carries the end-to-end metrics, measured with
// tracing off. With -trace 1 the run is split in two halves, the first
// untraced and the second traced (spans plus a CPU profile), and the result
// carries the per-layer metrics. See README.md for every metric's meaning.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// session is one set-up workload, ready for timed operations.
type session interface {
	// op performs the next operation and returns the host time of its timed
	// region. A non-nil error means the output check failed.
	op() (opTime, error)
	// verify runs the checks that stay outside both set-up and timing.
	verify() error
	// layers reports the per-layer counters and spans of the timed phase,
	// normalized by its op count.
	layers(out metricSet, ops int)
	// mark snapshots the counters layers reports deltas of, at the start of
	// the traced phase.
	mark()
	close()
}

// workload is one benchmark scenario.
type workload struct {
	rounds  int // timed rounds per run; each end-to-end metric is the median over them
	warmups int // discarded ops after each set-up
	probe   int // ops after the first set-up that retained_heap_mb is read after
	setup   func(seed int64, tr *tracer, tmp string) (session, error)
}

var nproc = runtime.NumCPU()

// The warm-up counts cover each warm pool at least once (its first pass
// reads from the store on disk). The probes are whole passes: ten over a
// warm pool, two blocks of the cold stream's cells. In a 30-second run a
// round holds 6 to 12 repro ops or sweeps, or thousands of serve requests.
var workloads = map[string]workload{
	"repro":               {rounds: 5, warmups: 1, probe: 2, setup: setupRepro},
	"capacity-sweep":      {rounds: 5, warmups: 1, probe: 2, setup: setupSweep},
	"serve-warm-simulate": {rounds: 10, warmups: 100, probe: 640, setup: setupServe(warmSimulate)},
	"serve-warm-plan":     {rounds: 10, warmups: 8, probe: 80, setup: setupServe(warmPlan)},
	"serve-cold-simulate": {rounds: 10, warmups: 20, probe: 2 * coldCells, setup: setupServe(coldSimulate)},
}

func main() {
	start := time.Now()
	name := flag.String("workload", "", "workload to run")
	seed := flag.Int64("seed", 1, "seed of the request streams and job orders")
	seconds := flag.Int("seconds", 10, "timed phase length in seconds")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	tmp := flag.String("tmpdir", ".", "directory for temporary result stores")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	res, err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *tmp, start)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

func run(w workload, seed int64, budget time.Duration, traced bool, tmp string, start time.Time) (*result, error) {
	tr := newTracer(traced)
	res := &result{Metrics: metricSet{}}
	fail := func(what string, err error) {
		res.Failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", what, err)
	}

	// setUp builds a session and issues its warm-up ops; it returns the
	// session and the seconds since t0.
	setUp := func(t0 time.Time) (session, float64, error) {
		s, err := w.setup(seed, tr, tmp)
		if err != nil {
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
		for j := 0; j < w.warmups; j++ {
			res.Attempted++
			if _, err := s.op(); err != nil {
				fail("warm-up op", err)
			}
		}
		return s, time.Since(t0).Seconds(), nil
	}
	// The first set-up is timed from main entry.
	sess, first, err := setUp(start)
	if err != nil {
		return nil, err
	}
	defer sess.close()
	setups := []float64{first}

	// The retention probe: a fixed number of ops, outside set-up and timing,
	// after which the live heap is read. A fixed
	// count keeps the figure independent of host speed while still seeing
	// what the program retains per op (on serve-cold-simulate, every
	// request is a network the server has not seen).
	for j := 0; j < w.probe; j++ {
		res.Attempted++
		if _, err := sess.op(); err != nil {
			fail("probe op", err)
		}
	}
	runtime.GC()
	live := liveHeap()

	buf := newOpBufs()
	if traced {
		// First half untraced: the reference for the tracing overhead.
		base := timed(sess, budget/2, buf)
		sess.mark()
		tr.on.Store(true)
		tr.startProfile()
		ph := timed(sess, budget-budget/2, buf)
		tr.on.Store(false)
		prof, err := tr.stopProfile()
		if err != nil {
			return nil, err
		}
		res.Attempted += base.ops + ph.ops
		res.Failed += base.failed + ph.failed
		check, ok := tr.report(res.Metrics, ph, prof)
		res.Attempted++
		if !ok {
			fail("attribution check", fmt.Errorf("%s", check))
		}
		zeroCounters(res.Metrics)
		sess.layers(res.Metrics, ph.ops)
		// Wall clock: while the profiler runs, the kernel updates the process
		// CPU clock only at scheduler ticks, too coarse for per-op times.
		overhead := 0.0
		if b := quantile(base.wall, 0.5); b > 0 {
			overhead = 100 * (quantile(ph.wall, 0.5)/b - 1)
		}
		res.Metrics.set("trace_overhead_pct", overhead, "%")
		printTable(res.Metrics, check)
	} else {
		// The timed phase is cut into rounds, and between two rounds one
		// more set-up is timed, of a session that is closed again at once
		// and collected outside any timing. Each metric is the median over
		// the rounds (set-ups), so a stretch of the run slowed by the rest
		// of a shared host moves it little. Op latencies are gated in CPU
		// time: the wall clock also counts the time the host's hypervisor
		// gives the VM's CPUs to other guests, which no round length
		// averages out, so it is only printed.
		var p50, p90, wall50, wall90, cpu, alloc []float64
		for r := 0; r < w.rounds; r++ {
			if r > 0 {
				s, d, err := setUp(time.Now())
				if err != nil {
					return nil, err
				}
				s.close()
				runtime.GC()
				setups = append(setups, d)
			}
			ph := timed(sess, budget/time.Duration(w.rounds), buf)
			res.Attempted += ph.ops
			res.Failed += ph.failed
			ops := float64(max(ph.ops, 1))
			p50 = append(p50, quantile(ph.opCPU, 0.5)*1e3)
			p90 = append(p90, quantile(ph.opCPU, 0.9)*1e3)
			wall50 = append(wall50, quantile(ph.wall, 0.5)*1e3)
			wall90 = append(wall90, quantile(ph.wall, 0.9)*1e3)
			cpu = append(cpu, ph.cpu.Seconds()*1e3/ops)
			alloc = append(alloc, ph.allocBytes/1024/ops)
		}
		res.Metrics.set("setup_s", median(setups), "s")
		res.Metrics.set("op_cpu_ms_p50", median(p50), "ms")
		res.Metrics.set("op_cpu_ms_p90", median(p90), "ms")
		res.Metrics.set("cpu_ms_per_op", median(cpu), "ms")
		res.Metrics.set("alloc_kb_per_op", median(alloc), "KiB")
		res.Metrics.set("retained_heap_mb", float64(live)/(1<<20), "MiB")
		fmt.Fprintf(os.Stderr, "perfbench: wall-clock op latency (not gated): p50 %.4g ms, p90 %.4g ms\n",
			median(wall50), median(wall90))
	}

	res.Attempted++
	if err := sess.verify(); err != nil {
		fail("verify", err)
	}
	if !traced {
		res.Attempted++
		gap, err := paperGap()
		if err != nil {
			fail("paper gap", err)
		} else {
			res.Metrics.set("paper_gap_pct", gap, "pp")
		}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// zeroCounters reports 0 for the counters of layers a workload does not
// reach; the session's layers overwrites the ones it measures.
func zeroCounters(out metricSet) {
	for _, name := range []string{"plan.evaluated", "plan.pruned", "plan.invalid", "store.hits", "store.writes"} {
		out.set(name, 0, "count/op")
	}
	for _, name := range []string{"store.write_errors", "serve.rejected_overload", "serve.deadline_exceeded"} {
		out.set(name, 0, "count")
	}
}

// opTime is the host time of an op's timed region: wall clock, and the CPU
// time of the process, every thread. CPU time leaves out the time the host's
// hypervisor gave the VM's CPUs to other guests.
type opTime struct{ wall, cpu time.Duration }

// stopwatch times a region in wall clock and process CPU.
type stopwatch struct {
	t0  time.Time
	cpu time.Duration
}

func startWatch() stopwatch { return stopwatch{cpu: processCPU(), t0: time.Now()} }

func (s stopwatch) stop() opTime {
	wall := time.Since(s.t0)
	return opTime{wall, processCPU() - s.cpu}
}

// phase is the outcome of one closed-loop timed phase.
type phase struct {
	wall, opCPU []float64 // per-op wall and CPU time in seconds, sorted (the first latBufCap ops)
	ops         int
	failed      int
	cpu         time.Duration // process CPU (user+system), every thread
	allocBytes  float64       // bytes allocated on the heap
	gcCPU       float64       // GC CPU seconds (runtime estimate)
	busyCPU     float64       // non-idle Go CPU seconds (runtime estimate)
}

// quantile returns the q-quantile of sorted xs (nearest rank).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	i := int(q*float64(len(xs))+0.5) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

// latBufCap bounds the op time buffers, preallocated so that recording an
// op's times never allocates during the timed phase.
const latBufCap = 1 << 21

// opBufs holds the wall and CPU nanoseconds of a phase's ops.
type opBufs struct{ wall, cpu []uint32 }

func newOpBufs() *opBufs {
	return &opBufs{make([]uint32, 0, latBufCap), make([]uint32, 0, latBufCap)}
}

// timed issues ops closed-loop, each as soon as the previous one returns,
// until the budget is spent.
func timed(sess session, budget time.Duration, buf *opBufs) phase {
	buf.wall, buf.cpu = buf.wall[:0], buf.cpu[:0]
	var ph phase
	allocs0, gc0, busy0 := runtimeCounters()
	cpu0 := processCPU()
	deadline := time.Now().Add(budget)
	for time.Now().Before(deadline) {
		d, err := sess.op()
		ph.ops++
		if err != nil {
			ph.failed++
			fmt.Fprintf(os.Stderr, "perfbench: op: %v\n", err)
		}
		if len(buf.wall) < latBufCap {
			buf.wall = append(buf.wall, ns32(d.wall))
			buf.cpu = append(buf.cpu, ns32(d.cpu))
		}
	}
	ph.cpu = processCPU() - cpu0
	runtime.GC() // refreshes the runtime's CPU-class estimates
	allocs1, gc1, busy1 := runtimeCounters()
	ph.allocBytes, ph.gcCPU, ph.busyCPU = allocs1-allocs0, gc1-gc0, busy1-busy0
	ph.wall, ph.opCPU = sortedSeconds(buf.wall), sortedSeconds(buf.cpu)
	return ph
}

func ns32(d time.Duration) uint32 { return uint32(min(max(d, 0), 1<<32-1)) }

func sortedSeconds(ns []uint32) []float64 {
	xs := make([]float64, len(ns))
	for i, v := range ns {
		xs[i] = float64(v) / 1e9
	}
	sort.Float64s(xs)
	return xs
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/cpu/classes/idle:cpu-seconds"},
}

// runtimeCounters reads cumulative heap allocation, GC CPU and non-idle CPU
// from the runtime (the CPU classes are estimates refreshed at each GC).
func runtimeCounters() (allocs, gcCPU, busyCPU float64) {
	s := slices.Clone(runtimeSamples)
	metrics.Read(s)
	return float64(s[0].Value.Uint64()), s[1].Value.Float64(), s[2].Value.Float64() - s[3].Value.Float64()
}

// liveHeap returns the bytes of live heap objects; call it right after a
// collection.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// clockProcessCPUTimeID is Linux's CLOCK_PROCESS_CPUTIME_ID.
const clockProcessCPUTimeID = 2

// processCPU returns the process's user plus system CPU time, every thread,
// to the nanosecond (getrusage counts in microseconds, too coarse for a
// 30 µs op).
func processCPU() time.Duration {
	var ts syscall.Timespec
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
