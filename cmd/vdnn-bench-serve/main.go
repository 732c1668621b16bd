// vdnn-bench-serve is a load generator for vdnn-serve: it fires concurrent
// /v1/simulate (or, with -endpoint plan, /v1/plan) requests at a running
// daemon, retries 503s with exponential backoff + jitter (honoring
// Retry-After), and reports a latency histogram and status breakdown. CI
// uses it to prove the overload→503→retry-success contract and to exercise
// SIGTERM drain under live load — for planner searches as well as single
// simulations.
//
// With -endpoint jobs each request is an async round trip: submit a sweep of
// -points points to POST /v1/jobs, require the 202, stream the NDJSON result
// feed from GET /v1/jobs/{id}, and count the request successful only when
// every point arrives in order with a result and the summary says done.
// A job holds an admission queue position until it finishes, so a
// saturated daemon answers submissions 503 "overloaded" and they are
// retried like any other request. Latency then measures submit-to-summary,
// queueing included.
//
//	vdnn-bench-serve -addr http://localhost:8080 -n 200 -c 16 -network alexnet
//	vdnn-bench-serve -addr http://localhost:8080 -n 20 -c 4 -endpoint plan
//	vdnn-bench-serve -addr http://localhost:8080 -n 20 -c 4 -endpoint jobs -points 3
//
// Exit status is 0 when the success ratio meets -min-success, 1 otherwise.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

func main() {
	var (
		addr       = flag.String("addr", "http://localhost:8080", "daemon base URL")
		n          = flag.Int("n", 100, "total requests")
		c          = flag.Int("c", 8, "concurrent clients")
		network    = flag.String("network", "alexnet", "network to simulate")
		batch      = flag.Int("batch", 64, "minibatch size")
		endpoint   = flag.String("endpoint", "simulate", "API to load: simulate, plan or jobs")
		points     = flag.Int("points", 3, "sweep points per async job (-endpoint jobs)")
		policy     = flag.String("policy", "", "policy override (empty = server default)")
		deadlineMS = flag.Int64("deadline-ms", 0, "per-request deadline_ms (0 = server default)")
		retries    = flag.Int("retries", 5, "max retries per request on 503/connection errors")
		backoff    = flag.Duration("backoff", 50*time.Millisecond, "initial retry backoff (doubles per attempt, jittered)")
		seed       = flag.Int64("seed", 1, "jitter PRNG seed")
		minSuccess = flag.Float64("min-success", 1.0, "required success ratio in [0,1]")
		timeout    = flag.Duration("timeout", 2*time.Minute, "HTTP client timeout per attempt")
		vary       = flag.Bool("vary", false, "vary batch per request to defeat the result cache (true load)")
	)
	flag.Parse()
	var path string
	switch *endpoint {
	case "simulate":
		path = "/v1/simulate"
	case "plan":
		path = "/v1/plan"
	case "jobs":
		path = "/v1/jobs"
	default:
		log.Fatalf("vdnn-bench-serve: unknown -endpoint %q (simulate, plan or jobs)", *endpoint)
	}

	client := &http.Client{Timeout: *timeout}
	var (
		mu        sync.Mutex
		latencies []time.Duration
		statuses  = map[int]int{}
		codes     = map[string]int{}
		retried   atomic.Int64
		connErrs  atomic.Int64
		success   atomic.Int64
	)
	jobs := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < *c; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(*seed + int64(worker)))
			for i := range jobs {
				var body []byte
				if path == "/v1/jobs" {
					// A sweep of -points points; with -vary every point of
					// every request gets a distinct cache key.
					pts := make([]map[string]any, *points)
					for p := range pts {
						pts[p] = map[string]any{"network": *network, "batch": *batch + p}
						if *vary {
							pts[p]["batch"] = *batch + (i*(*points)+p)%256
						}
						if *policy != "" {
							pts[p]["policy"] = *policy
						}
					}
					req := map[string]any{"jobs": pts}
					if *deadlineMS > 0 {
						req["deadline_ms"] = *deadlineMS
					}
					body, _ = json.Marshal(req)
				} else {
					req := map[string]any{"network": *network, "batch": *batch}
					if *vary {
						// Distinct batch per request → distinct cache key →
						// every request costs a real simulation. Offset from the
						// base batch so runs with different -batch values do not
						// share keys.
						req["batch"] = *batch + i%256
					}
					if *policy != "" && path == "/v1/simulate" {
						req["policy"] = *policy
					}
					if *deadlineMS > 0 {
						req["deadline_ms"] = *deadlineMS
					}
					body, _ = json.Marshal(req)
				}

				t0 := time.Now()
				status, code, raw, err := post(client, *addr+path, body, *retries, *backoff, rng, &retried)
				reqOK := err == nil && status == http.StatusOK
				if err == nil && path == "/v1/jobs" {
					reqOK = false
					if status == http.StatusAccepted {
						if serr := streamJob(client, *addr, raw, *points); serr == nil {
							reqOK = true
						} else {
							code = "stream: " + serr.Error()
						}
					}
				}
				lat := time.Since(t0)

				mu.Lock()
				latencies = append(latencies, lat)
				if err != nil {
					connErrs.Add(1)
				} else {
					statuses[status]++
					if code != "" {
						codes[code]++
					}
				}
				mu.Unlock()
				if reqOK {
					success.Add(1)
				}
			}
		}(w)
	}
	for i := 0; i < *n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	elapsed := time.Since(start)

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	pct := func(p float64) time.Duration {
		if len(latencies) == 0 {
			return 0
		}
		i := int(p * float64(len(latencies)-1))
		return latencies[i]
	}
	ok := success.Load()
	ratio := float64(ok) / float64(*n)
	fmt.Printf("vdnn-bench-serve: %d requests, %d concurrent, %.2fs, %.1f req/s\n",
		*n, *c, elapsed.Seconds(), float64(*n)/elapsed.Seconds())
	fmt.Printf("  success %d/%d (%.1f%%), retries %d, connection errors %d\n",
		ok, *n, 100*ratio, retried.Load(), connErrs.Load())
	fmt.Printf("  latency p50 %s  p95 %s  p99 %s  max %s\n",
		pct(0.50).Round(time.Microsecond), pct(0.95).Round(time.Microsecond),
		pct(0.99).Round(time.Microsecond), pct(1.0).Round(time.Microsecond))
	for status, count := range statuses {
		fmt.Printf("  status %d: %d\n", status, count)
	}
	for code, count := range codes {
		fmt.Printf("  code %q: %d\n", code, count)
	}
	if ratio < *minSuccess {
		log.Fatalf("vdnn-bench-serve: success ratio %.3f below required %.3f", ratio, *minSuccess)
	}
	os.Exit(0)
}

// post sends one request with retry: 503s (overloaded/draining) and
// transport errors back off exponentially with full jitter, honoring a
// Retry-After header when the server sets one. It returns the final
// attempt's status, taxonomy code, and raw response body.
func post(client *http.Client, url string, body []byte, retries int, backoff time.Duration, rng *rand.Rand, retried *atomic.Int64) (status int, code string, raw []byte, err error) {
	delay := backoff
	for attempt := 0; ; attempt++ {
		var resp *http.Response
		resp, err = client.Post(url, "application/json", bytes.NewReader(body))
		if err == nil {
			status = resp.StatusCode
			raw, _ = io.ReadAll(io.LimitReader(resp.Body, 1<<20))
			code = errorCode(raw)
			resp.Body.Close()
			if status != http.StatusServiceUnavailable {
				return status, code, raw, nil
			}
			if code == "draining" {
				// The taxonomy's advice for draining is "try another node";
				// this bench has only one, so retrying is futile.
				return status, code, raw, nil
			}
			if ra := resp.Header.Get("Retry-After"); ra != "" {
				if secs, perr := strconv.Atoi(ra); perr == nil && secs >= 0 {
					// Retry-After is a floor; jitter on top of it below.
					if d := time.Duration(secs) * time.Second; d > delay {
						delay = d
					}
				}
			}
		}
		if attempt >= retries {
			return status, code, raw, err
		}
		retried.Add(1)
		// Full jitter: sleep U(0, delay], then double the ceiling.
		time.Sleep(time.Duration(1 + rng.Int63n(int64(delay))))
		if delay < 30*time.Second {
			delay *= 2
		}
	}
}

// errorCode extracts the taxonomy code from an error body, if any.
func errorCode(raw []byte) string {
	var e struct {
		Code string `json:"code"`
	}
	_ = json.Unmarshal(raw, &e)
	return e.Code
}

// streamJob consumes one async job to its summary: the 202 body names the
// stream; every point must arrive in order with a result, and the summary
// must report the job done with all points completed.
func streamJob(client *http.Client, addr string, accepted []byte, points int) error {
	var acc struct {
		ID     string `json:"id"`
		Points int    `json:"points"`
		Stream string `json:"stream"`
	}
	if err := json.Unmarshal(accepted, &acc); err != nil || acc.ID == "" || acc.Stream == "" {
		return fmt.Errorf("bad 202 body %.120q: %v", accepted, err)
	}
	if acc.Points != points {
		return fmt.Errorf("job %s accepted %d points, want %d", acc.ID, acc.Points, points)
	}
	resp, err := client.Get(addr + acc.Stream)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("stream %s: status %d", acc.Stream, resp.StatusCode)
	}
	var (
		seen    int
		summary *struct {
			Status    string `json:"status"`
			Completed int    `json:"completed"`
		}
	)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		var ev struct {
			Type      string          `json:"type"`
			Index     int             `json:"index"`
			Result    json.RawMessage `json:"result"`
			Error     string          `json:"error"`
			Status    string          `json:"status"`
			Completed int             `json:"completed"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return fmt.Errorf("job %s: bad NDJSON line: %v", acc.ID, err)
		}
		switch ev.Type {
		case "point":
			if ev.Index != seen {
				return fmt.Errorf("job %s: point %d arrived at position %d", acc.ID, ev.Index, seen)
			}
			if len(ev.Result) == 0 || ev.Error != "" {
				return fmt.Errorf("job %s point %d: %s", acc.ID, ev.Index, ev.Error)
			}
			seen++
		case "summary":
			summary = &struct {
				Status    string `json:"status"`
				Completed int    `json:"completed"`
			}{ev.Status, ev.Completed}
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if seen != points {
		return fmt.Errorf("job %s: %d of %d points streamed", acc.ID, seen, points)
	}
	if summary == nil || summary.Status != "done" || summary.Completed != points {
		return fmt.Errorf("job %s: summary %+v", acc.ID, summary)
	}
	return nil
}
