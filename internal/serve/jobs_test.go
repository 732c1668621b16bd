package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"vdnn"
)

// newJobServer builds a server tuned for job tests: optional per-simulation
// holdup (chaos hook) and explicit admission knobs.
func newJobServer(t *testing.T, holdup time.Duration, serveOpts ...Option) (*Server, *httptest.Server) {
	t.Helper()
	sim := vdnn.NewSimulator(vdnn.WithParallelism(4))
	if holdup > 0 {
		sim.SetChaosHook(func(string) error { time.Sleep(holdup); return nil })
	}
	srv := New(sim, serveOpts...)
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

// submitJob posts a sweep body to /v1/jobs and returns the decoded 202.
func submitJob(t *testing.T, ts *httptest.Server, body string) JobAccepted {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, body %s", resp.StatusCode, b)
	}
	var acc JobAccepted
	if err := json.Unmarshal(b, &acc); err != nil {
		t.Fatalf("202 body %q: %v", b, err)
	}
	if acc.ID == "" || acc.Status != JobQueued || acc.Stream != "/v1/jobs/"+acc.ID {
		t.Fatalf("bad JobAccepted: %+v", acc)
	}
	return acc
}

// streamJob consumes a job's NDJSON stream to the end.
func streamJob(t *testing.T, ts *httptest.Server, id string) ([]JobEvent, JobSummary) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("stream: status %d, body %s", resp.StatusCode, b)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream Content-Type %q", ct)
	}
	var (
		events  []JobEvent
		summary JobSummary
		sawSum  bool
	)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		var probe struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			t.Fatalf("NDJSON line %q: %v", line, err)
		}
		switch probe.Type {
		case "point":
			var ev JobEvent
			if err := json.Unmarshal(line, &ev); err != nil {
				t.Fatal(err)
			}
			events = append(events, ev)
		case "summary":
			if err := json.Unmarshal(line, &summary); err != nil {
				t.Fatal(err)
			}
			sawSum = true
		default:
			t.Fatalf("unknown event type %q", probe.Type)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !sawSum {
		t.Fatalf("stream ended without a summary (got %d points)", len(events))
	}
	return events, summary
}

func sweepBody(n int) string {
	jobs := make([]string, n)
	for i := range jobs {
		jobs[i] = fmt.Sprintf(`{"network":"alexnet","batch":%d,"policy":"vdnn-all"}`, 8+i)
	}
	return fmt.Sprintf(`{"jobs":[%s]}`, strings.Join(jobs, ","))
}

// TestJobLifecycle submits a three-point sweep, streams it to completion, and
// checks the points arrive in order with results, the summary closes the
// stream, a second GET replays the finished job, and the counters add up.
func TestJobLifecycle(t *testing.T) {
	srv, ts := newJobServer(t, 0)
	acc := submitJob(t, ts, sweepBody(3))
	if acc.Points != 3 {
		t.Fatalf("accepted %d points, want 3", acc.Points)
	}

	events, sum := streamJob(t, ts, acc.ID)
	if len(events) != 3 {
		t.Fatalf("got %d point events, want 3", len(events))
	}
	for i, ev := range events {
		if ev.Index != i {
			t.Errorf("event %d has index %d (stream out of order)", i, ev.Index)
		}
		if ev.Result == nil || ev.Error != "" || ev.Code != "" {
			t.Errorf("event %d: %+v, want a clean result", i, ev)
		} else if ev.Result.Batch != 8+i {
			t.Errorf("event %d result has batch %d, want %d", i, ev.Result.Batch, 8+i)
		}
	}
	if sum.Status != JobDone || sum.Completed != 3 || sum.Failed != 0 || sum.Canceled != 0 {
		t.Fatalf("summary %+v, want done 3/0/0", sum)
	}

	// A finished job replays instantly — the stream doubles as the fetch.
	replay, sum2 := streamJob(t, ts, acc.ID)
	if len(replay) != 3 || sum2.Status != JobDone {
		t.Fatalf("replay: %d events, summary %+v", len(replay), sum2)
	}

	// The job shows up in the listing and in /v1/stats.
	resp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Jobs []JobSummary `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list.Jobs) != 1 || list.Jobs[0].ID != acc.ID {
		t.Fatalf("job listing %+v", list)
	}
	js := srv.jobs.stats()
	if js.Submitted != 1 || js.Completed != 1 || js.PointsCompleted != 3 || js.Retained != 1 {
		t.Fatalf("job stats %+v", js)
	}
}

// TestJobUnknown404 checks the unknown-job taxonomy on GET and DELETE.
func TestJobUnknown404(t *testing.T) {
	_, ts := newJobServer(t, 0)
	for _, method := range []string{http.MethodGet, http.MethodDelete} {
		req, _ := http.NewRequest(method, ts.URL+"/v1/jobs/j-nope-1", nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s unknown job: status %d", method, resp.StatusCode)
		}
		if _, code := errBody(t, b); code != "unknown_job" {
			t.Fatalf("%s unknown job: code %q", method, code)
		}
	}
}

// TestJobCancel deletes a slow job mid-run and checks the remaining points
// stream as canceled and the job finalizes as canceled.
func TestJobCancel(t *testing.T) {
	_, ts := newJobServer(t, 400*time.Millisecond, WithMaxConcurrent(1))
	acc := submitJob(t, ts, sweepBody(4))

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+acc.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: status %d", resp.StatusCode)
	}

	events, sum := streamJob(t, ts, acc.ID)
	if len(events) != 4 {
		t.Fatalf("got %d events, want 4 (canceled points still stream)", len(events))
	}
	if sum.Status != JobCanceled {
		t.Fatalf("summary %+v, want canceled", sum)
	}
	var canceled int
	for _, ev := range events {
		if ev.Code == "canceled" {
			canceled++
			if ev.Result != nil || ev.Error == "" {
				t.Errorf("canceled event %d should carry an error, no result: %+v", ev.Index, ev)
			}
		}
	}
	if canceled == 0 {
		t.Fatalf("no canceled points despite DELETE before the first 400ms point finished")
	}
	if sum.Canceled != canceled || sum.Completed+sum.Failed+sum.Canceled != 4 {
		t.Fatalf("summary tallies %+v don't match %d canceled events", sum, canceled)
	}
}

// TestJobRejectDraining checks the drain contract: submissions are refused
// with 503 "draining", but a job accepted before the drain still finishes and
// DrainJobs observes that.
func TestJobRejectDraining(t *testing.T) {
	srv, ts := newJobServer(t, 100*time.Millisecond)
	acc := submitJob(t, ts, sweepBody(2))

	srv.StartDrain()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(sweepBody(1)))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: status %d", resp.StatusCode)
	}
	if _, code := errBody(t, b); code != "draining" {
		t.Fatalf("submit while draining: code %q", code)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatalf("draining 503 without Retry-After")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.DrainJobs(ctx); err != nil {
		t.Fatalf("DrainJobs: %v", err)
	}
	_, sum := streamJob(t, ts, acc.ID)
	if sum.Status != JobDone || sum.Completed != 2 {
		t.Fatalf("pre-drain job should have finished: %+v", sum)
	}
}

// TestJobQueueFull checks jobs go through the same admission as synchronous
// requests: with one execution slot and no queue, a running job holds the
// only admission position until it finishes, so both a /v1/simulate and a
// second job bounce with 503 "overloaded", each counted as an overload
// rejection. Once the job finishes its position is free again, and it was
// admitted exactly once.
func TestJobQueueFull(t *testing.T) {
	srv, ts := newJobServer(t, 300*time.Millisecond,
		WithMaxConcurrent(1), WithQueueDepth(0))

	first := submitJob(t, ts, sweepBody(2))
	for _, c := range []struct{ path, body string }{
		{"/v1/simulate", `{"network":"alexnet","batch":8}`},
		{"/v1/jobs", sweepBody(1)},
	} {
		resp, b := post(t, ts.URL+c.path, c.body)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%s behind a running job: status %d, body %s, want 503", c.path, resp.StatusCode, b)
		}
		if _, code := errBody(t, b); code != "overloaded" {
			t.Fatalf("%s queue-full code %q", c.path, code)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatalf("%s overloaded 503 without Retry-After", c.path)
		}
	}
	if got := srv.Stats().RejectedOverload; got != 2 {
		t.Fatalf("RejectedOverload = %d, want 2 (the simulate and the second job)", got)
	}
	if _, sum := streamJob(t, ts, first.ID); sum.Status != JobDone {
		t.Fatalf("first job: %+v", sum)
	}
	if st := srv.Stats(); st.InFlight != 0 || st.Admitted != 1 {
		t.Fatalf("after the job finished: %+v, want in_flight 0 and admitted 1", st)
	}
}

// TestJobConcurrentStress is the -race workout: many goroutines submitting,
// streaming, listing, canceling and scraping concurrently, then a drain that
// must observe every accepted job finished.
func TestJobConcurrentStress(t *testing.T) {
	srv, ts := newJobServer(t, 0, WithQueueDepth(64))

	const submitters = 8
	const jobsEach = 5
	var wg sync.WaitGroup
	var mu sync.Mutex
	var accepted []string
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < jobsEach; i++ {
				body := fmt.Sprintf(`{"jobs":[{"network":"alexnet","batch":%d},{"network":"alexnet","batch":%d,"policy":"vdnn-all"}]}`,
					8+(g*jobsEach+i)%24, 8+(g*jobsEach+i)%24)
				resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				b, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusAccepted {
					t.Errorf("status %d: %s", resp.StatusCode, b)
					return
				}
				var acc JobAccepted
				if err := json.Unmarshal(b, &acc); err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				accepted = append(accepted, acc.ID)
				mu.Unlock()
				switch i % 3 {
				case 0: // stream it
					_, sum := streamJob(t, ts, acc.ID)
					if sum.Points != 2 {
						t.Errorf("summary %+v", sum)
					}
				case 1: // cancel it (may already be done — both are valid)
					req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+acc.ID, nil)
					if resp, err := http.DefaultClient.Do(req); err == nil {
						resp.Body.Close()
					}
				}
			}
		}(g)
	}
	// Concurrent scrapers and listers race the submitters.
	stop := make(chan struct{})
	var scrapers sync.WaitGroup
	for i := 0; i < 2; i++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, p := range []string{"/metrics", "/v1/jobs", "/v1/stats"} {
					if resp, err := http.Get(ts.URL + p); err == nil {
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	scrapers.Wait()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.DrainJobs(ctx); err != nil {
		t.Fatalf("DrainJobs after stress: %v", err)
	}
	js := srv.jobs.stats()
	if js.Submitted != int64(len(accepted)) {
		t.Fatalf("submitted %d, accepted %d", js.Submitted, len(accepted))
	}
	if js.Completed+js.Canceled != js.Submitted {
		t.Fatalf("drained but %d of %d jobs unaccounted: %+v",
			js.Submitted-js.Completed-js.Canceled, js.Submitted, js)
	}
	if js.QueueDepth != 0 || js.Running != 0 {
		t.Fatalf("drained but queue/running nonzero: %+v", js)
	}
	// Every job is still addressable after the storm.
	for _, id := range accepted {
		if srv.jobs.get(id) == nil {
			t.Fatalf("job %s lost (retention should hold %d < %d)", id, len(accepted), maxRetainedJobs)
		}
	}
}

// TestStatsIncludesJobsAndStore checks the /v1/stats merge: the jobs block is
// always present; the store block appears exactly when the server knows one.
func TestStatsIncludesJobsAndStore(t *testing.T) {
	_, ts := newJobServer(t, 0)
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var noStore map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&noStore); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if _, ok := noStore["jobs"]; !ok {
		t.Fatalf("stats without jobs block: %v", noStore)
	}
	if _, ok := noStore["store"]; ok {
		t.Fatalf("storeless server reports a store block")
	}

	st, err := vdnn.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sim := vdnn.NewSimulator(vdnn.WithParallelism(2), vdnn.WithStore(st))
	srv := New(sim, WithStore(st))
	t.Cleanup(srv.Close)
	ts2 := httptest.NewServer(srv)
	t.Cleanup(ts2.Close)
	if _, err := http.Post(ts2.URL+"/v1/simulate", "application/json",
		strings.NewReader(`{"network":"alexnet","batch":16,"policy":"vdnn-all"}`)); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(ts2.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Store == nil {
		t.Fatalf("store-backed server missing store block")
	}
	if stats.Store.Writes != 1 {
		t.Fatalf("store stats after one simulation: %+v", stats.Store)
	}
}
