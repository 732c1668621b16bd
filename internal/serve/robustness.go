package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"vdnn"
	"vdnn/internal/chaos"
)

// The robustness layer of the daemon: admission control (a bounded queue in
// front of a concurrency limit), per-request deadlines, panic isolation,
// readiness distinct from liveness, and a structured error taxonomy.
//
// Error taxonomy — every error body is {"error": "...", "code": "..."}:
//
//	400 invalid     the request itself is malformed or names the impossible
//	408 deadline    the request's deadline fired before the result was ready
//	499 canceled    the client went away; work was canceled mid-simulation
//	500 internal    a worker panicked (isolated, process keeps serving)
//	500 injected    a chaos-injected fault (tests only)
//	503 overloaded  queue full — fast fail, Retry-After set, safe to retry
//	503 draining    shutdown in progress — Retry-After set, try another node
//
// 499 follows the nginx convention for "client closed request": the client
// is gone, so the status is effectively a log/metrics artifact, but keeping
// it distinct from 408/500 keeps the taxonomy honest under load analysis.

// StatusClientClosedRequest is the non-standard 499 used when the client
// disconnects before its simulation completes.
const StatusClientClosedRequest = 499

// Option configures New beyond its defaults.
type Option func(*options)

type options struct {
	maxConcurrent   int
	queueDepth      int
	defaultDeadline time.Duration
	maxDeadline     time.Duration
	injector        *chaos.Injector
	logger          *slog.Logger
	store           *vdnn.Store
}

// WithMaxConcurrent bounds how many simulation requests (simulate, sweep,
// plan or async job) execute at once; further admitted requests wait in the
// bounded queue. Defaults to the simulator's parallelism. n <= 0 keeps the
// default.
func WithMaxConcurrent(n int) Option {
	return func(o *options) {
		if n > 0 {
			o.maxConcurrent = n
		}
	}
}

// WithQueueDepth bounds how many admitted requests — async jobs included,
// which hold their place until they finish — may wait for an execution slot
// beyond the MaxConcurrent already running; a request arriving past that
// fails fast with 503 + Retry-After instead of queueing unboundedly.
// Default 4 × MaxConcurrent. n < 0 keeps the default; 0 disables queueing
// (beyond the running set) entirely.
func WithQueueDepth(n int) Option {
	return func(o *options) {
		if n >= 0 {
			o.queueDepth = n
		}
	}
}

// WithDeadlines sets the server-side default deadline applied to every
// simulation request that does not carry its own deadline_ms, and the
// ceiling client-supplied deadlines are clamped to. Zero def disables the
// default; zero max disables the clamp.
func WithDeadlines(def, max time.Duration) Option {
	return func(o *options) {
		o.defaultDeadline = def
		o.maxDeadline = max
	}
}

// WithChaos wires a fault injector around the handler chain — inside the
// panic-isolation middleware, so injected panics exercise the real recovery
// path. Test harness only.
func WithChaos(in *chaos.Injector) Option {
	return func(o *options) { o.injector = in }
}

// WithLogger routes the server's structured request logs (one slog record
// per request, with request ids) and the async jobs' lifecycle logs to l.
// Default: discard.
func WithLogger(l *slog.Logger) Option {
	return func(o *options) {
		if l != nil {
			o.logger = l
		}
	}
}

// WithStore tells the server which persistent result store its simulator
// was configured with, so store counters appear in GET /v1/stats and
// /metrics. It does not install the store on the simulator — pass it to
// vdnn.WithStore for that.
func WithStore(st *vdnn.Store) Option {
	return func(o *options) { o.store = st }
}

// admission is the bounded request queue: queue admits at most
// maxConcurrent+queueDepth requests and async jobs into the system (running
// + waiting), slots lets maxConcurrent of them execute.
type admission struct {
	slots chan struct{}
	queue chan struct{}
}

func newAdmission(maxConcurrent, queueDepth int) *admission {
	return &admission{
		slots: make(chan struct{}, maxConcurrent),
		queue: make(chan struct{}, maxConcurrent+queueDepth),
	}
}

// tryEnter claims a queue position without blocking; false means the system
// is full and the caller should fast-fail.
func (a *admission) tryEnter() bool {
	select {
	case a.queue <- struct{}{}:
		return true
	default:
		return false
	}
}

// acquire waits for an execution slot under the request's context.
func (a *admission) acquire(ctx context.Context) error {
	select {
	case a.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (a *admission) releaseSlot() { <-a.slots }
func (a *admission) leave()       { <-a.queue }

// ServeStats counts the admission and failure behavior of the HTTP layer;
// exposed under "serve" on GET /v1/stats.
type ServeStats struct {
	// InFlight is the number of simulation requests and async jobs
	// currently admitted (queued or executing) — a gauge, not a counter.
	InFlight int64 `json:"in_flight"`
	// Admitted counts simulation requests and async jobs that entered the
	// system.
	Admitted int64 `json:"admitted"`
	// Completed counts simulation requests answered 2xx.
	Completed int64 `json:"completed"`
	// Canceled counts requests abandoned by their client (499).
	Canceled int64 `json:"canceled"`
	// DeadlineExceeded counts requests whose deadline fired (408).
	DeadlineExceeded int64 `json:"deadline_exceeded"`
	// RejectedOverload counts fast-fail 503s from a full queue.
	RejectedOverload int64 `json:"rejected_overload"`
	// RejectedDraining counts 503s answered while draining.
	RejectedDraining int64 `json:"rejected_draining"`
	// Panics counts worker panics converted to 500s.
	Panics int64 `json:"panics"`
}

// serveCounters is the atomic backing store of ServeStats.
type serveCounters struct {
	inFlight         atomic.Int64
	admitted         atomic.Int64
	completed        atomic.Int64
	canceled         atomic.Int64
	deadlineExceeded atomic.Int64
	rejectedOverload atomic.Int64
	rejectedDraining atomic.Int64
	panics           atomic.Int64
}

func (c *serveCounters) snapshot() ServeStats {
	return ServeStats{
		InFlight:         c.inFlight.Load(),
		Admitted:         c.admitted.Load(),
		Completed:        c.completed.Load(),
		Canceled:         c.canceled.Load(),
		DeadlineExceeded: c.deadlineExceeded.Load(),
		RejectedOverload: c.rejectedOverload.Load(),
		RejectedDraining: c.rejectedDraining.Load(),
		Panics:           c.panics.Load(),
	}
}

// StartDrain flips the server into drain mode: /readyz answers 503 so load
// balancers stop routing here, and new simulation requests fast-fail with
// 503 "draining". Requests already admitted run to completion (or until the
// process's drain budget cancels them). Idempotent.
func (s *Server) StartDrain() { s.draining.Store(true) }

// Draining reports whether StartDrain was called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Stats returns a snapshot of the HTTP layer's counters.
func (s *Server) Stats() ServeStats { return s.counters.snapshot() }

// requestContext derives the execution context of one simulation request:
// the client's context (so disconnects cancel work), bounded by the
// effective deadline — the client's deadline_ms when given, the server
// default otherwise, clamped to the configured maximum either way.
func (s *Server) requestContext(parent context.Context, deadlineMS int64) (context.Context, context.CancelFunc) {
	d := s.defaultDeadline
	if deadlineMS > 0 {
		d = time.Duration(deadlineMS) * time.Millisecond
	}
	if s.maxDeadline > 0 && (d <= 0 || d > s.maxDeadline) {
		d = s.maxDeadline
	}
	if d <= 0 {
		return context.WithCancel(parent)
	}
	return context.WithTimeout(parent, d)
}

// enter is the admission step every simulation request and async job takes
// first: the drain check, then a bounded queue position, held until leave.
// On failure it has already written the 503.
func (s *Server) enter(w http.ResponseWriter) bool {
	if s.draining.Load() {
		s.counters.rejectedDraining.Add(1)
		w.Header().Set("Retry-After", "5")
		writeErrorCode(w, http.StatusServiceUnavailable, "draining",
			fmt.Errorf("shutting down: not accepting new simulations"))
		return false
	}
	if !s.adm.tryEnter() {
		s.counters.rejectedOverload.Add(1)
		w.Header().Set("Retry-After", "1")
		writeErrorCode(w, http.StatusServiceUnavailable, "overloaded",
			fmt.Errorf("queue full (%d executing + %d waiting): retry with backoff", cap(s.adm.slots), cap(s.adm.queue)-cap(s.adm.slots)))
		return false
	}
	s.counters.inFlight.Add(1)
	s.counters.admitted.Add(1)
	return true
}

// leave gives back the queue position taken by enter.
func (s *Server) leave() {
	s.adm.leave()
	s.counters.inFlight.Add(-1)
}

// admit runs the admission path of a synchronous request: enter, then a
// slot wait under ctx. On success it returns a release function; on failure
// it has already written the response.
func (s *Server) admit(w http.ResponseWriter, ctx context.Context) (release func(), ok bool) {
	if !s.enter(w) {
		return nil, false
	}
	if err := s.adm.acquire(ctx); err != nil {
		s.leave()
		s.writeCtxError(w, err)
		return nil, false
	}
	return func() {
		s.adm.releaseSlot()
		s.leave()
	}, true
}

// writeCtxError maps a context error onto the taxonomy: deadline → 408,
// cancellation (client gone, or shutdown hard-cancel) → 499.
func (s *Server) writeCtxError(w http.ResponseWriter, err error) {
	if errors.Is(err, context.DeadlineExceeded) {
		s.counters.deadlineExceeded.Add(1)
		writeErrorCode(w, http.StatusRequestTimeout, "deadline", err)
		return
	}
	s.counters.canceled.Add(1)
	writeErrorCode(w, StatusClientClosedRequest, "canceled", err)
}

// simErrorStatus maps a Run/RunEach error onto the taxonomy. The Run
// contract makes plain errors invalid configurations (client-supplied here →
// 400); context outcomes and panics are distinguished first. Shared by the
// synchronous error writer and the job stream, so a failed job point
// reports the same code its synchronous twin would.
func simErrorStatus(err error) (status int, code string) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusRequestTimeout, "deadline"
	case errors.Is(err, context.Canceled), errors.Is(err, vdnn.ErrCanceled):
		return StatusClientClosedRequest, "canceled"
	case errors.Is(err, chaos.ErrInjected):
		return http.StatusInternalServerError, "injected"
	case strings.Contains(err.Error(), "panic"):
		return http.StatusInternalServerError, "internal"
	default:
		return http.StatusBadRequest, "invalid"
	}
}

// writeSimError classifies a Run/RunEach error for a synchronous response.
func (s *Server) writeSimError(w http.ResponseWriter, err error) {
	status, code := simErrorStatus(err)
	switch code {
	case "deadline":
		s.counters.deadlineExceeded.Add(1)
	case "canceled":
		s.counters.canceled.Add(1)
	}
	writeErrorCode(w, status, code, err)
}

// recoverer is the panic-isolation middleware: a panic anywhere below it —
// handler code, a chaos injection, a simulation bug that escaped the
// engine's own recovery — becomes a structured 500 instead of tearing down
// the connection (or, for panics on ancillary goroutines we own, the
// process).
func (s *Server) recoverer(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				s.counters.panics.Add(1)
				writeErrorCode(w, http.StatusInternalServerError, "internal",
					fmt.Errorf("internal error: %v", rec))
			}
		}()
		next.ServeHTTP(w, r)
	})
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		writeErrorCode(w, http.StatusServiceUnavailable, "draining", fmt.Errorf("draining"))
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ready")
}

// validDeadlineMS rejects negative client deadlines (and absurdly large
// ones, which would overflow time.Duration math).
func validDeadlineMS(ms int64) error {
	const maxMS = int64(time.Hour/time.Millisecond) * 24
	if ms < 0 || ms > maxMS {
		return fmt.Errorf("deadline_ms must be in [0, %d], got %s", maxMS, strconv.FormatInt(ms, 10))
	}
	return nil
}
