package serve

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"vdnn"
)

// The job layer: a sweep is a job, and runJob is the one path that runs its
// points — through the engine's batch dispatch, in parallel, each point
// published the moment it finishes. POST /v1/sweep runs a job inline under
// its own admission slot and deadline. POST /v1/jobs takes the same
// admission step as any request (drain check, then a bounded queue
// position, held until the job finishes), answers 202 with an id, and waits
// for an execution slot in a goroutine; its points stream back from GET
// /v1/jobs/{id} as NDJSON, in job order. Draining rejects new submissions
// (503 "draining") but finishes every job already accepted. DELETE
// /v1/jobs/{id} cancels a job through the engine's ref-counted
// cancellation: undispatched points are skipped, in-flight simulations stop
// at their next per-layer check (unless a coalesced synchronous request
// still wants them).

// maxRetainedJobs bounds the finished-job history kept for late GETs; the
// oldest finished jobs are pruned first, at submission time.
const maxRetainedJobs = 256

// JobStatus is the lifecycle of an async job.
type JobStatus string

const (
	JobQueued   JobStatus = "queued"
	JobRunning  JobStatus = "running"
	JobDone     JobStatus = "done"
	JobCanceled JobStatus = "canceled"
)

// JobAccepted is the 202 body of POST /v1/jobs.
type JobAccepted struct {
	ID     string    `json:"id"`
	Status JobStatus `json:"status"`
	Points int       `json:"points"`
	// Stream is the path streaming this job's results (NDJSON).
	Stream string `json:"stream"`
}

// JobEvent is one NDJSON line of GET /v1/jobs/{id}: a completed sweep point
// ("point", in job order, with either a result or an error), then exactly
// one trailing "summary".
type JobEvent struct {
	Type  string `json:"type"` // "point"
	Index int    `json:"index"`
	// Result is the point's simulation result; nil when the point failed.
	Result *SimResponse `json:"result,omitempty"`
	// Error and Code describe a failed or skipped point, using the same
	// code taxonomy as synchronous responses ("canceled", "deadline", ...).
	Error string `json:"error,omitempty"`
	Code  string `json:"code,omitempty"`
}

// JobSummary is the final NDJSON line of a job stream, and the body of a
// non-streaming status lookup.
type JobSummary struct {
	Type      string    `json:"type"` // "summary"
	ID        string    `json:"id"`
	Status    JobStatus `json:"status"`
	Points    int       `json:"points"`
	Completed int       `json:"completed"`
	Failed    int       `json:"failed"`
	Canceled  int       `json:"canceled"`
	ElapsedMS float64   `json:"elapsed_ms"`
}

// JobStats counts the job subsystem; exposed under "jobs" on GET /v1/stats
// and as vdnn_jobs_* on /metrics.
type JobStats struct {
	// QueueDepth is the number of accepted jobs waiting for an execution
	// slot — a gauge.
	QueueDepth int64 `json:"queue_depth"`
	// Running is the number of jobs currently executing — a gauge.
	Running int64 `json:"running"`
	// Submitted counts accepted jobs. Refused submissions are counted in
	// ServeStats (RejectedOverload, RejectedDraining) alongside synchronous
	// ones.
	Submitted int64 `json:"submitted"`
	// Completed counts jobs that ran to the end of their point list;
	// Canceled counts jobs finalized after their context was canceled.
	Completed int64 `json:"completed"`
	Canceled  int64 `json:"canceled"`
	// Per-point outcomes across all jobs.
	PointsCompleted int64 `json:"points_completed"`
	PointsFailed    int64 `json:"points_failed"`
	PointsCanceled  int64 `json:"points_canceled"`
	// Retained is the number of jobs currently addressable by GET — a gauge.
	Retained int `json:"retained"`
}

// Point outcomes, indexing the per-job and per-runner tallies.
const (
	pointCompleted = iota
	pointFailed
	pointCanceled
)

// jobPoint is one sweep point's slot: runJob fills resp or err/code and then
// closes done; readers look only after done is closed.
type jobPoint struct {
	done chan struct{}
	resp *SimResponse
	err  error
	code string
}

// outcome classifies a finished point for the tallies.
func (p *jobPoint) outcome() int {
	switch p.code {
	case "":
		return pointCompleted
	case "canceled", "deadline":
		return pointCanceled
	}
	return pointFailed
}

// job is one sweep: its resolved points and one published slot per point.
// runner is set on a submitted job (POST /v1/jobs) and nil on a synchronous
// sweep, which has no id, status or lifecycle beyond its request.
type job struct {
	id        string
	submitted time.Time
	runner    *jobRunner

	reqs  []SimRequest
	batch []vdnn.BatchJob

	cancel context.CancelFunc // cancels the submitted job's context

	points []jobPoint
	doneCh chan struct{} // closed at finalization, after the last point

	mu       sync.Mutex
	status   JobStatus
	finished time.Time
	tally    [3]int // points per outcome
}

func (j *job) summary() JobSummary {
	j.mu.Lock()
	defer j.mu.Unlock()
	end := j.finished
	if end.IsZero() {
		end = time.Now()
	}
	return JobSummary{
		Type:      "summary",
		ID:        j.id,
		Status:    j.status,
		Points:    len(j.points),
		Completed: j.tally[pointCompleted],
		Failed:    j.tally[pointFailed],
		Canceled:  j.tally[pointCanceled],
		ElapsedMS: float64(end.Sub(j.submitted)) / float64(time.Millisecond),
	}
}

// runJob runs every point of j through the engine's batch dispatch — in
// parallel up to the simulator's parallelism, duplicates folded, no new
// simulation dispatched once ctx is done — and publishes each point as it
// finishes. It is the one execution path of both sweep routes.
func (s *Server) runJob(ctx context.Context, j *job) {
	s.sim.RunEach(ctx, j.batch, func(i int, res *vdnn.Result, err error) {
		p := &j.points[i]
		if err == nil {
			var out SimResponse
			if out, err = response(j.reqs[i], res); err == nil {
				p.resp = &out
			}
		}
		if err != nil {
			p.err = err
			_, p.code = simErrorStatus(err)
		}
		o := p.outcome()
		j.mu.Lock()
		j.tally[o]++
		j.mu.Unlock()
		if j.runner != nil {
			j.runner.points[o].Add(1)
		}
		close(p.done)
	})
}

// jobRunner is the registry of submitted jobs and their counters.
type jobRunner struct {
	s          *Server
	root       context.Context
	cancelRoot context.CancelFunc

	mu         sync.Mutex
	cond       *sync.Cond // broadcast when unfinished decrements
	unfinished int
	byID       map[string]*job
	order      []string // insertion order, for retention pruning

	idPrefix string
	idSeq    atomic.Int64

	queued    atomic.Int64
	running   atomic.Int64
	submitted atomic.Int64
	completed atomic.Int64
	canceled  atomic.Int64
	points    [3]atomic.Int64 // points per outcome
}

func newJobRunner(s *Server) *jobRunner {
	var pfx [4]byte
	_, _ = rand.Read(pfx[:])
	root, cancel := context.WithCancel(context.Background())
	jr := &jobRunner{
		s:          s,
		root:       root,
		cancelRoot: cancel,
		byID:       make(map[string]*job),
		idPrefix:   hex.EncodeToString(pfx[:]),
	}
	jr.cond = sync.NewCond(&jr.mu)
	return jr
}

func (jr *jobRunner) stats() JobStats {
	jr.mu.Lock()
	retained := len(jr.byID)
	jr.mu.Unlock()
	return JobStats{
		QueueDepth:      jr.queued.Load(),
		Running:         jr.running.Load(),
		Submitted:       jr.submitted.Load(),
		Completed:       jr.completed.Load(),
		Canceled:        jr.canceled.Load(),
		PointsCompleted: jr.points[pointCompleted].Load(),
		PointsFailed:    jr.points[pointFailed].Load(),
		PointsCanceled:  jr.points[pointCanceled].Load(),
		Retained:        retained,
	}
}

func (jr *jobRunner) get(id string) *job {
	jr.mu.Lock()
	defer jr.mu.Unlock()
	return jr.byID[id]
}

// pruneLocked drops the oldest FINISHED jobs beyond the retention bound.
// Unfinished jobs are never pruned; they are bounded by the admission queue.
func (jr *jobRunner) pruneLocked() {
	for len(jr.byID) >= maxRetainedJobs {
		pruned := false
		for i, id := range jr.order {
			j := jr.byID[id]
			if j == nil {
				jr.order = append(jr.order[:i], jr.order[i+1:]...)
				pruned = true
				break
			}
			j.mu.Lock()
			finished := j.status == JobDone || j.status == JobCanceled
			j.mu.Unlock()
			if finished {
				delete(jr.byID, id)
				jr.order = append(jr.order[:i], jr.order[i+1:]...)
				pruned = true
				break
			}
		}
		if !pruned {
			return
		}
	}
}

// start gives an admitted job its id, registers it and runs it in its own
// goroutine.
func (jr *jobRunner) start(ctx context.Context, j *job) {
	j.id = fmt.Sprintf("j-%s-%d", jr.idPrefix, jr.idSeq.Add(1))
	j.submitted = time.Now()
	j.runner = jr
	j.doneCh = make(chan struct{})
	j.status = JobQueued
	jr.mu.Lock()
	jr.pruneLocked()
	jr.byID[j.id] = j
	jr.order = append(jr.order, j.id)
	jr.unfinished++
	jr.mu.Unlock()
	jr.submitted.Add(1)
	jr.queued.Add(1)
	go jr.run(ctx, j)
}

// run waits for an execution slot, runs the job, and finalizes it. A job
// whose context ends before a slot frees up still runs: its points fail
// fast with the context's error, so the stream reports why.
func (jr *jobRunner) run(ctx context.Context, j *job) {
	slot := jr.s.adm.acquire(ctx) == nil
	jr.queued.Add(-1)
	jr.running.Add(1)
	j.mu.Lock()
	j.status = JobRunning
	j.mu.Unlock()

	jr.s.runJob(ctx, j)
	if slot {
		jr.s.adm.releaseSlot()
	}
	jr.s.leave()

	j.mu.Lock()
	if ctx.Err() != nil && j.tally[pointCanceled] > 0 {
		j.status = JobCanceled
	} else {
		j.status = JobDone
	}
	final := j.status
	j.finished = time.Now()
	j.mu.Unlock()
	j.cancel() // release the job context's resources
	close(j.doneCh)
	if final == JobCanceled {
		jr.canceled.Add(1)
	} else {
		jr.completed.Add(1)
	}
	jr.running.Add(-1)
	jr.s.log.Info("job finished", "job", j.id, "status", string(final),
		"points", len(j.points))

	jr.mu.Lock()
	jr.unfinished--
	jr.cond.Broadcast()
	jr.mu.Unlock()
}

// drainJobs blocks until every accepted job has finished, or ctx fires.
func (jr *jobRunner) drainJobs(ctx context.Context) error {
	done := make(chan struct{})
	stop := context.AfterFunc(ctx, func() {
		// Wake the waiter so it can observe ctx and give up.
		jr.mu.Lock()
		jr.cond.Broadcast()
		jr.mu.Unlock()
	})
	defer stop()
	go func() {
		jr.mu.Lock()
		for jr.unfinished > 0 && ctx.Err() == nil {
			jr.cond.Wait()
		}
		jr.mu.Unlock()
		close(done)
	}()
	<-done
	return ctx.Err()
}

// DrainJobs waits until every accepted async job has finished — the
// complement of StartDrain, which stops new submissions. Returns ctx's
// error if it fires first.
func (s *Server) DrainJobs(ctx context.Context) error { return s.jobs.drainJobs(ctx) }

// Close cancels every waiting and running async job: they finalize as
// "canceled", with their remaining points marked canceled. The daemon's
// shutdown path calls it once the drain budget expires; the server must not
// serve requests afterwards.
func (s *Server) Close() { s.jobs.cancelRoot() }

// --- HTTP handlers ----------------------------------------------------------

// handleJobSubmit is POST /v1/jobs: a sweep body (same schema as /v1/sweep),
// admitted like any request and answered 202 with a job id before any
// simulation runs.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	j, deadlineMS, ok := s.parseSweep(w, r)
	if !ok || !s.enter(w) {
		return
	}
	// The job's context roots at the runner (so shutdown can hard-cancel
	// it), not at the HTTP request, which ends at the 202. Its deadline is
	// a synchronous sweep's, and covers the slot wait plus execution.
	ctx, cancel := s.requestContext(s.jobs.root, deadlineMS)
	j.cancel = cancel
	s.jobs.start(ctx, j)
	s.log.Info("job accepted", "job", j.id, "points", len(j.points))
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(JobAccepted{
		ID:     j.id,
		Status: JobQueued,
		Points: len(j.points),
		Stream: "/v1/jobs/" + j.id,
	})
}

// handleJobStream is GET /v1/jobs/{id}: an NDJSON stream of the job's
// completed points, in order, as they finish — then one summary line. A job
// that already finished streams everything immediately, so the endpoint
// doubles as the result fetch.
func (s *Server) handleJobStream(w http.ResponseWriter, r *http.Request) {
	j := s.jobs.get(r.PathValue("id"))
	if j == nil {
		writeErrorCode(w, http.StatusNotFound, "unknown_job",
			fmt.Errorf("unknown job %q (finished jobs are retained for the last %d)", r.PathValue("id"), maxRetainedJobs))
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	rc := http.NewResponseController(w)
	enc := json.NewEncoder(w) // no indent: one event per line
	for i := range j.points {
		select {
		case <-j.points[i].done:
		case <-r.Context().Done():
			return // client gone; the job itself keeps running
		}
		p := &j.points[i]
		ev := JobEvent{Type: "point", Index: i, Result: p.resp, Code: p.code}
		if p.err != nil {
			ev.Error = p.err.Error()
		}
		if err := enc.Encode(ev); err != nil {
			return
		}
		_ = rc.Flush()
	}
	select {
	case <-j.doneCh:
	case <-r.Context().Done():
		return
	}
	_ = enc.Encode(j.summary())
}

// handleJobDelete is DELETE /v1/jobs/{id}: cancel. Queued points are
// skipped; the in-flight simulation stops at its next per-layer check via
// the engine's ref-counted cancellation (it keeps running only if a
// synchronous request coalesced onto it and still wants the result).
// Canceling a finished job is a no-op answered with its final summary.
func (s *Server) handleJobDelete(w http.ResponseWriter, r *http.Request) {
	j := s.jobs.get(r.PathValue("id"))
	if j == nil {
		writeErrorCode(w, http.StatusNotFound, "unknown_job",
			fmt.Errorf("unknown job %q", r.PathValue("id")))
		return
	}
	j.cancel()
	s.log.Info("job cancel requested", "job", j.id)
	writeJSON(w, j.summary())
}

// handleJobList is GET /v1/jobs: the summaries of every retained job, in
// submission order.
func (s *Server) handleJobList(w http.ResponseWriter, _ *http.Request) {
	s.jobs.mu.Lock()
	jobs := make([]*job, 0, len(s.jobs.order))
	for _, id := range s.jobs.order {
		if j := s.jobs.byID[id]; j != nil {
			jobs = append(jobs, j)
		}
	}
	s.jobs.mu.Unlock()
	out := struct {
		Jobs []JobSummary `json:"jobs"`
	}{Jobs: make([]JobSummary, 0, len(jobs))}
	for _, j := range jobs {
		out.Jobs = append(out.Jobs, j.summary())
	}
	writeJSON(w, out)
}
