package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime/pprof"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// tracer records spans around the public calls into each layer. Spans are
// aggregated in memory by name (count and total host time) and written out
// once, when the run ends. It is off outside the traced half of a -trace 1
// run; a span then costs one atomic load.
type tracer struct {
	traced bool // a -trace 1 run: install the timing wrappers at set-up
	on     atomic.Bool
	spans  map[string]*spanStat // fixed at construction: no lock needed

	// opNS and spanNS accumulate the wall time of timed ops and the part of
	// it covered by top-level spans (the attribution check).
	opNS, spanNS atomic.Int64

	prof     bytes.Buffer
	profCPU0 time.Duration
}

type spanStat struct{ n, ns atomic.Int64 }

// spanNames lists every span the benchmark records; reported in this order.
var spanNames = []struct{ name, unit string }{
	{"figures.jobs_ms", "ms"},
	{"sweep.prime_ms", "ms"},
	{"figures.gen_ms", "ms"},
	{"sweep.run_batch_ms", "ms"},
	{"core.build_structure_ms", "ms"},
	{"core.price_us", "us"},
	{"core.run_ms", "ms"},
	{"serve.handler_us", "us"},
	{"store.load_us", "us"},
	{"store.save_us", "us"},
}

func newTracer(traced bool) *tracer {
	t := &tracer{traced: traced, spans: map[string]*spanStat{}}
	for _, s := range spanNames {
		t.spans[s.name] = &spanStat{}
	}
	return t
}

// record adds one span of duration d. When top is set the span is a direct
// child of the current op and counts toward its coverage.
func (t *tracer) record(name string, d time.Duration, top bool) {
	if !t.on.Load() {
		return
	}
	t.add(name, d)
	if top {
		t.spanNS.Add(int64(d))
	}
}

// add counts one span of duration d whether or not the traced phase is on.
func (t *tracer) add(name string, d time.Duration) {
	s := t.spans[name]
	s.n.Add(1)
	s.ns.Add(int64(d))
}

// span times f as a top-level span of the current op.
func (t *tracer) span(name string, f func()) {
	t0 := time.Now()
	f()
	t.record(name, time.Since(t0), true)
}

// op records the wall time of one timed op.
func (t *tracer) op(d time.Duration) {
	if t.on.Load() {
		t.opNS.Add(int64(d))
	}
}

func (t *tracer) startProfile() {
	t.profCPU0 = processCPU()
	if err := pprof.StartCPUProfile(&t.prof); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: cpu profile:", err)
	}
}

// profileSummary is the CPU profile of the traced phase, reduced to self
// time per leaf package.
type profileSummary struct {
	byPkg   map[string]time.Duration
	total   time.Duration // CPU time the profile sampled
	process time.Duration // process CPU time over the same window
}

func (t *tracer) stopProfile() (profileSummary, error) {
	pprof.StopCPUProfile()
	ps := profileSummary{process: processCPU() - t.profCPU0}
	byFunc, err := parseCPUProfile(t.prof.Bytes())
	if err != nil {
		return ps, fmt.Errorf("cpu profile: %w", err)
	}
	ps.byPkg = map[string]time.Duration{}
	for fn, d := range byFunc {
		ps.byPkg[leafPackage(fn)] += d
		ps.total += d
	}
	return ps, nil
}

// leafPackage maps a symbol such as "vdnn/internal/core.(*trainer).step" or
// "encoding/json.(*encodeState).marshal" to its package's last path element
// ("core", "json").
func leafPackage(fn string) string {
	if i := strings.LastIndexByte(fn, '/'); i >= 0 {
		fn = fn[i+1:]
	}
	if i := strings.IndexByte(fn, '.'); i >= 0 {
		fn = fn[:i]
	}
	return fn
}

// profiledPackages are the packages whose self-time share is reported; the
// rest are summed into other.self_pct.
var profiledPackages = []string{
	"figures", "report", "sweep", "store", "plan", "serve", "metrics", "json",
	"http", "syscall", "core", "sim", "memalloc", "cudnnsim", "dnn", "networks", "runtime",
}

// report writes the per-layer metrics of the traced phase (span means,
// package self-time shares, GC share) and returns the attribution check's
// verdict line and whether the check passed.
func (t *tracer) report(out metricSet, ph phase, prof profileSummary) (string, bool) {
	for _, s := range spanNames {
		st := t.spans[s.name]
		mean := 0.0
		if n := st.n.Load(); n > 0 {
			mean = float64(st.ns.Load()) / float64(n)
		}
		if s.unit == "ms" {
			out.set(s.name, mean/1e6, "ms")
		} else {
			out.set(s.name, mean/1e3, "us")
		}
	}
	other := 100.0
	for _, pkg := range profiledPackages {
		pct := 0.0
		if prof.total > 0 {
			pct = 100 * float64(prof.byPkg[pkg]) / float64(prof.total)
		}
		other -= pct
		out.set(pkg+".self_pct", pct, "%")
	}
	out.set("other.self_pct", other, "%")
	var rest []string
	for pkg := range prof.byPkg {
		if !slices.Contains(profiledPackages, pkg) {
			rest = append(rest, pkg)
		}
	}
	sort.Slice(rest, func(i, j int) bool { return prof.byPkg[rest[i]] > prof.byPkg[rest[j]] })
	var top []string
	for _, pkg := range rest[:min(len(rest), 6)] {
		top = append(top, fmt.Sprintf("%s %.1f%%", pkg, 100*float64(prof.byPkg[pkg])/float64(prof.total)))
	}
	gcPct := 0.0
	if ph.busyCPU > 0 {
		gcPct = 100 * ph.gcCPU / ph.busyCPU
	}
	out.set("gc.cpu_pct", gcPct, "%")

	opNS, spanNS := t.opNS.Load(), t.spanNS.Load()
	coverage, profShare := 0.0, 0.0
	if opNS > 0 {
		coverage = 100 * float64(spanNS) / float64(opNS)
	}
	if prof.process > 0 {
		profShare = 100 * float64(prof.total) / float64(prof.process)
	}
	out.set("attribution.span_coverage_pct", coverage, "%")
	out.set("attribution.profile_cpu_pct", profShare, "%")
	ok := coverage >= 90 && profShare >= 85 && profShare <= 115
	verdict := "ok"
	if !ok {
		verdict = "FAILED"
	}
	return fmt.Sprintf("largest packages in other.self_pct: %s\n"+
		"attribution check: spans cover %.1f%% of op wall time (need >= 90%%); "+
		"profile samples %.1f%% of process CPU (need 85-115%%): %s", strings.Join(top, ", "), coverage, profShare, verdict), ok
}

// printTable prints the per-layer metrics and the attribution check to
// standard error.
func printTable(out metricSet, check string) {
	names := make([]string, 0, len(out))
	for n := range out {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "per-layer metrics (traced half)\n")
	for _, n := range names {
		fmt.Fprintf(&b, "  %-34s %12.4f %s\n", n, out[n].Value, out[n].Unit)
	}
	fmt.Fprintln(&b, check)
	fmt.Fprint(os.Stderr, b.String())
}
