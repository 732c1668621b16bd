package serve

import (
	"crypto/rand"
	"encoding/hex"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"vdnn"
	"vdnn/internal/metrics"
)

// Observability: a dependency-free Prometheus text exposition at GET /metrics
// and one structured log record per request. Engine, store, planner, job and
// admission counters are published through scrape-time closures over the
// counters the JSON API already reports, so /metrics and /v1/stats can never
// disagree; only the HTTP series (request counts, latency, in-flight) are
// live instruments owned here.

// httpMetrics are the live per-request instruments.
type httpMetrics struct {
	inFlight *metrics.Gauge
	requests *metrics.CounterVec   // {endpoint, code}
	duration *metrics.HistogramVec // {endpoint}
}

// newMetricsRegistry builds the /metrics registry over the server's counters.
// Store series appear only when the server was configured with WithStore.
func (s *Server) newMetricsRegistry() *metrics.Registry {
	r := metrics.NewRegistry()
	cf := func(name, help string, fn func() float64) { r.NewCounterFunc(name, help, fn) }
	gf := func(name, help string, fn func() float64) { r.NewGaugeFunc(name, help, fn) }

	// Engine: the simulator's result-cache counters.
	eng := func(pick func(vdnn.EngineStats) int64) func() float64 {
		return func() float64 { return float64(pick(s.sim.Stats())) }
	}
	cf("vdnn_engine_simulations_total", "Top-level requests computed rather than served from the cache.",
		eng(func(st vdnn.EngineStats) int64 { return st.Simulations }))
	cf("vdnn_engine_structures_total", "Capacity-independent structure builds recorded for differential re-pricing.",
		eng(func(st vdnn.EngineStats) int64 { return st.Structures }))
	cf("vdnn_engine_priced_total", "Results served from a structure another request built, instead of simulating.",
		eng(func(st vdnn.EngineStats) int64 { return st.Priced }))
	cf("vdnn_engine_cache_hits_total", "Requests served from a completed cache entry.",
		eng(func(st vdnn.EngineStats) int64 { return st.Hits }))
	cf("vdnn_engine_coalesced_total", "Requests folded onto an in-flight computation of the same key.",
		eng(func(st vdnn.EngineStats) int64 { return st.Coalesced }))
	cf("vdnn_engine_cache_evictions_total", "Completed entries dropped to honor the cache bound.",
		eng(func(st vdnn.EngineStats) int64 { return st.Evictions }))
	cf("vdnn_engine_canceled_total", "Top-level computations aborted because every waiter went away.",
		eng(func(st vdnn.EngineStats) int64 { return st.Canceled }))

	// Store: the persistent result store, when one is attached.
	if st := s.store; st != nil {
		sf := func(pick func(vdnn.StoreStats) int64) func() float64 {
			return func() float64 { return float64(pick(st.Stats())) }
		}
		gf("vdnn_store_records", "Valid records known to this replica (scan at open + local writes).",
			sf(func(v vdnn.StoreStats) int64 { return v.Records }))
		cf("vdnn_store_hits_total", "Read-through lookups answered from disk.",
			sf(func(v vdnn.StoreStats) int64 { return v.Hits }))
		cf("vdnn_store_misses_total", "Read-through lookups that fell through to simulation.",
			sf(func(v vdnn.StoreStats) int64 { return v.Misses }))
		cf("vdnn_store_writes_total", "Successful write-throughs.",
			sf(func(v vdnn.StoreStats) int64 { return v.Writes }))
		cf("vdnn_store_write_errors_total", "Failed write-throughs (logged, never propagated).",
			sf(func(v vdnn.StoreStats) int64 { return v.WriteErrors }))
		cf("vdnn_store_corrupt_records_total", "Records skipped for failing validation at open or read.",
			sf(func(v vdnn.StoreStats) int64 { return v.CorruptSkipped }))
	}

	// Jobs: the async sweeps.
	jr := s.jobs
	gf("vdnn_jobs_queue_depth", "Accepted jobs waiting for an execution slot.",
		func() float64 { return float64(jr.queued.Load()) })
	gf("vdnn_jobs_running", "Jobs currently executing.",
		func() float64 { return float64(jr.running.Load()) })
	gf("vdnn_jobs_retained", "Jobs addressable by GET /v1/jobs/{id}.",
		func() float64 { return float64(jr.stats().Retained) })
	cf("vdnn_jobs_submitted_total", "Jobs accepted with 202.",
		func() float64 { return float64(jr.submitted.Load()) })
	cf("vdnn_jobs_completed_total", "Jobs that ran to the end of their point list.",
		func() float64 { return float64(jr.completed.Load()) })
	cf("vdnn_jobs_canceled_total", "Jobs finalized after cancellation.",
		func() float64 { return float64(jr.canceled.Load()) })
	cf("vdnn_jobs_points_completed_total", "Sweep points that produced a result.",
		func() float64 { return float64(jr.points[pointCompleted].Load()) })
	cf("vdnn_jobs_points_failed_total", "Sweep points that failed.",
		func() float64 { return float64(jr.points[pointFailed].Load()) })
	cf("vdnn_jobs_points_canceled_total", "Sweep points skipped or stopped by cancellation.",
		func() float64 { return float64(jr.points[pointCanceled].Load()) })

	// Serve: the admission layer.
	c := &s.counters
	gf("vdnn_serve_in_flight", "Simulation requests and async jobs admitted (queued or executing).",
		func() float64 { return float64(c.inFlight.Load()) })
	cf("vdnn_serve_admitted_total", "Simulation requests and async jobs that entered the system.",
		func() float64 { return float64(c.admitted.Load()) })
	cf("vdnn_serve_completed_total", "Simulation requests answered 2xx.",
		func() float64 { return float64(c.completed.Load()) })
	cf("vdnn_serve_canceled_total", "Requests abandoned by their client (499).",
		func() float64 { return float64(c.canceled.Load()) })
	cf("vdnn_serve_deadline_exceeded_total", "Requests whose deadline fired (408).",
		func() float64 { return float64(c.deadlineExceeded.Load()) })
	cf("vdnn_serve_rejected_overload_total", "Fast-fail 503s from a full queue.",
		func() float64 { return float64(c.rejectedOverload.Load()) })
	cf("vdnn_serve_rejected_draining_total", "503s answered while draining.",
		func() float64 { return float64(c.rejectedDraining.Load()) })
	cf("vdnn_serve_panics_total", "Worker panics converted to 500s.",
		func() float64 { return float64(c.panics.Load()) })

	// HTTP: live per-request instruments, labeled by route pattern (bounded
	// cardinality — the label is the registered pattern, never the raw URL).
	s.http.inFlight = r.NewGauge("vdnn_http_in_flight", "HTTP requests currently being served.")
	s.http.requests = r.NewCounterVec("vdnn_http_requests_total",
		"HTTP requests by route pattern and status code.", "endpoint", "code")
	s.http.duration = r.NewHistogramVec("vdnn_http_request_duration_seconds",
		"HTTP request latency by route pattern.", nil, "endpoint")
	return r
}

// statusRecorder captures the status code written downstream. Unwrap keeps
// http.ResponseController features (notably Flush, which the NDJSON job
// stream depends on) working through the wrapper.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (sr *statusRecorder) WriteHeader(code int) {
	if sr.status == 0 {
		sr.status = code
	}
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(b []byte) (int, error) {
	if sr.status == 0 {
		sr.status = http.StatusOK
	}
	return sr.ResponseWriter.Write(b)
}

func (sr *statusRecorder) Unwrap() http.ResponseWriter { return sr.ResponseWriter }

// Request ids: a per-process random prefix plus a sequence number — unique,
// cheap, and greppable across the daemon's logs.
var (
	ridPrefix = func() string {
		var b [4]byte
		_, _ = rand.Read(b[:])
		return hex.EncodeToString(b[:])
	}()
	ridSeq atomic.Int64
)

// instrument wraps one route's handler with the request-scoped observability:
// X-Request-Id, the in-flight gauge, the per-endpoint counter and latency
// histogram, and a structured log record.
func (s *Server) instrument(pattern string, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rid := ridPrefix + "-" + strconv.FormatInt(ridSeq.Add(1), 10)
		w.Header().Set("X-Request-Id", rid)
		sr := &statusRecorder{ResponseWriter: w}
		s.http.inFlight.Inc()
		start := time.Now()
		// Record via defer so a panicking handler (isolated into a 500 by the
		// recoverer above this middleware) still settles the gauge and logs;
		// the panic is re-raised for the recoverer after recording it as 500.
		defer func() {
			p := recover()
			elapsed := time.Since(start)
			s.http.inFlight.Dec()
			status := sr.status
			if status == 0 {
				status = http.StatusOK
			}
			if p != nil {
				status = http.StatusInternalServerError
			}
			s.http.requests.WithLabelValues(pattern, strconv.Itoa(status)).Inc()
			s.http.duration.WithLabelValues(pattern).Observe(elapsed.Seconds())
			s.log.Info("request",
				"id", rid,
				"method", r.Method,
				"path", r.URL.Path,
				"endpoint", pattern,
				"status", status,
				"dur_ms", float64(elapsed)/float64(time.Millisecond),
			)
			if p != nil {
				panic(p)
			}
		}()
		h(sr, r)
	})
}
