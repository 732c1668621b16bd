package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vdnn"
	"vdnn/internal/chaos"
)

// newHookedJobServer builds a server whose simulator runs hook at every
// simulation attempt.
func newHookedJobServer(t *testing.T, hook func(string) error, serveOpts ...Option) (*Server, *httptest.Server) {
	t.Helper()
	sim := vdnn.NewSimulator(vdnn.WithParallelism(4))
	sim.SetChaosHook(hook)
	srv := New(sim, serveOpts...)
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

// TestJobPointsRunInParallel checks a job's points go through the engine's
// batch dispatch: on a parallelism-4 simulator a 4-point job has more than
// one simulation in flight at once, and its stream still arrives in order.
func TestJobPointsRunInParallel(t *testing.T) {
	var (
		mu           sync.Mutex
		active, peak int
	)
	_, ts := newHookedJobServer(t, func(string) error {
		mu.Lock()
		active++
		peak = max(peak, active)
		mu.Unlock()
		time.Sleep(100 * time.Millisecond)
		mu.Lock()
		active--
		mu.Unlock()
		return nil
	})
	acc := submitJob(t, ts, sweepBody(4))
	events, sum := streamJob(t, ts, acc.ID)
	if sum.Status != JobDone || sum.Completed != 4 {
		t.Fatalf("summary %+v, want done with 4 completed", sum)
	}
	for i, ev := range events {
		if ev.Index != i {
			t.Fatalf("event %d has index %d (stream out of order)", i, ev.Index)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if peak <= 1 {
		t.Fatalf("peak concurrent simulations = %d, want > 1 (job points ran one at a time)", peak)
	}
}

// TestJobDefaultDeadline checks a job without deadline_ms runs under the
// server's default deadline, as a synchronous sweep does — not the maximum.
func TestJobDefaultDeadline(t *testing.T) {
	_, ts := newJobServer(t, 400*time.Millisecond, WithDeadlines(200*time.Millisecond, 10*time.Minute))
	acc := submitJob(t, ts, sweepBody(2))
	events, sum := streamJob(t, ts, acc.ID)
	for _, ev := range events {
		if ev.Code != "deadline" || ev.Result != nil {
			t.Errorf("event %d: %+v, want code deadline (the 200ms default deadline fires before the 400ms holdup ends)", ev.Index, ev)
		}
	}
	if sum.Status != JobCanceled || sum.Canceled != 2 {
		t.Fatalf("summary %+v, want canceled with 2 canceled points", sum)
	}
}

// TestJobWaitsForSlot checks an accepted job that finds every execution slot
// busy waits for one, counted by jobs.queue_depth, and then runs.
func TestJobWaitsForSlot(t *testing.T) {
	srv, ts := newJobServer(t, 200*time.Millisecond, WithMaxConcurrent(1), WithQueueDepth(1))
	first := submitJob(t, ts, sweepBody(2))
	second := submitJob(t, ts, sweepBody(1))
	deadline := time.Now().Add(5 * time.Second)
	for js := srv.jobs.stats(); js.QueueDepth != 1 || js.Running != 1; js = srv.jobs.stats() {
		if time.Now().After(deadline) {
			t.Fatalf("job stats %+v, want one job running and one waiting for a slot", js)
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, id := range []string{first.ID, second.ID} {
		if _, sum := streamJob(t, ts, id); sum.Status != JobDone {
			t.Fatalf("job %s: %+v", id, sum)
		}
	}
	if js := srv.jobs.stats(); js.QueueDepth != 0 || js.Running != 0 {
		t.Fatalf("after both jobs: %+v", js)
	}
}

// TestSweepAndJobAgree checks the two sweep routes run the same job: one
// body, posted to /v1/sweep and submitted to /v1/jobs, yields equal results
// in the same order.
func TestSweepAndJobAgree(t *testing.T) {
	_, ts := newJobServer(t, 0)
	body := `{"jobs":[
		{"network":"alexnet","batch":8},
		{"network":"alexnet","batch":16,"policy":"vdnn-all","algo":"m"},
		{"network":"alexnet","batch":8},
		{"network":"alexnet","batch":8,"policy":"vdnn-all","devices":2,"codec":"zvc"},
		{"network":"alexnet","batch":8,"policy":"vdnn-all","stages":2}
	]}`
	resp, b := post(t, ts.URL+"/v1/sweep", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: status %d, body %s", resp.StatusCode, b)
	}
	var sweep SweepResponse
	if err := json.Unmarshal(b, &sweep); err != nil {
		t.Fatal(err)
	}
	events, sum := streamJob(t, ts, submitJob(t, ts, body).ID)
	if sum.Status != JobDone || len(events) != len(sweep.Results) {
		t.Fatalf("job: %d events, summary %+v; sweep has %d results", len(events), sum, len(sweep.Results))
	}
	for i, ev := range events {
		if ev.Result == nil || !reflect.DeepEqual(*ev.Result, sweep.Results[i]) {
			t.Errorf("point %d: job %+v\nsweep %+v", i, ev.Result, sweep.Results[i])
		}
	}
}

// TestSweepAndJobFailAlike injects an engine error at one point of a sweep
// (its siblings are served from the cache, so only that point simulates):
// /v1/sweep answers with the point's status and code, naming it, and the
// job stream carries the same code on the same event.
func TestSweepAndJobFailAlike(t *testing.T) {
	var armed atomic.Bool
	inject := chaos.New(chaos.Config{Seed: 1, ErrorProb: 1}).Hook()
	_, ts := newHookedJobServer(t, func(point string) error {
		if armed.Load() {
			return inject(point)
		}
		return nil
	})
	const k = 2
	body := sweepBody(4)
	var sweep struct {
		Jobs []json.RawMessage `json:"jobs"`
	}
	if err := json.Unmarshal([]byte(body), &sweep); err != nil {
		t.Fatal(err)
	}
	for i, p := range sweep.Jobs {
		if i == k {
			continue
		}
		if resp, b := post(t, ts.URL+"/v1/simulate", string(p)); resp.StatusCode != http.StatusOK {
			t.Fatalf("warming point %d: status %d, body %s", i, resp.StatusCode, b)
		}
	}
	armed.Store(true)

	resp, b := post(t, ts.URL+"/v1/sweep", body)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("sweep: status %d, body %s, want 500", resp.StatusCode, b)
	}
	if msg, code := errBody(t, b); code != "injected" || !strings.HasPrefix(msg, fmt.Sprintf("job %d: ", k)) {
		t.Fatalf("sweep error %q (code %q), want code injected naming job %d", msg, code, k)
	}

	events, sum := streamJob(t, ts, submitJob(t, ts, body).ID)
	if sum.Failed != 1 || sum.Completed != 3 {
		t.Fatalf("job summary %+v, want 1 failed and 3 completed", sum)
	}
	for i, ev := range events {
		if i == k && (ev.Code != "injected" || ev.Result != nil) {
			t.Errorf("event %d: %+v, want code injected", i, ev)
		}
		if i != k && (ev.Code != "" || ev.Result == nil) {
			t.Errorf("event %d: %+v, want a result", i, ev)
		}
	}
}

// TestJobStatsWireFields pins the job counters on the wire: the worker count
// and the job-queue rejection counter are gone (refusals are counted with
// the synchronous ones in serve.rejected_*).
func TestJobStatsWireFields(t *testing.T) {
	_, ts := newJobServer(t, 0)
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Jobs map[string]json.RawMessage `json:"jobs"`
	}
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"workers", "rejected"} {
		if _, ok := stats.Jobs[field]; ok {
			t.Errorf("/v1/stats jobs block still has %q: %v", field, stats.Jobs)
		}
	}
	if _, ok := stats.Jobs["queue_depth"]; !ok {
		t.Errorf("/v1/stats jobs block lacks queue_depth: %v", stats.Jobs)
	}
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if strings.Contains(string(text), "vdnn_jobs_rejected_total") {
		t.Errorf("/metrics still exposes vdnn_jobs_rejected_total")
	}
}
