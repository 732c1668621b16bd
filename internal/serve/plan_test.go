package serve

import (
	"encoding/json"
	"net/http"
	"testing"

	"vdnn"
)

func TestPlanEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct {
		name, body string
		// zeroEnum: the winner's policy is base or its algo is m — the enum
		// zero values, which the paste-ready body must still spell out.
		zeroEnum bool
	}{
		{"two devices", `{"network": "alexnet", "batch": 8, "max_devices": 2}`, false},
		{"one device", `{"network": "alexnet", "batch": 8, "max_devices": 1}`, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := post(t, ts.URL+"/v1/plan", tc.body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status = %d, body %s", resp.StatusCode, body)
			}
			var out PlanResponse
			if err := json.Unmarshal(body, &out); err != nil {
				t.Fatal(err)
			}
			if !out.Feasible || out.Best == nil || out.Result == nil {
				t.Fatalf("expected a feasible plan with a winner, got %+v", out)
			}
			if out.Best.Mode == "" || out.Best.Policy == "" {
				t.Fatalf("winner labels missing: %+v", out.Best)
			}
			if len(out.Evidence) != out.Counters.Space+out.Counters.Refined {
				t.Fatalf("evidence rows %d != space %d + refined %d",
					len(out.Evidence), out.Counters.Space, out.Counters.Refined)
			}
			if out.Counters.Pruned == 0 {
				t.Fatalf("expected a pruned search, got counters %+v", out.Counters)
			}
			win := out.Best.Request
			if tc.zeroEnum && win.Policy != vdnn.Baseline && win.Algo != vdnn.MemOptimal {
				t.Fatalf("winner %v/%v: want policy base or algo m for this input", win.Policy, win.Algo)
			}

			// The winner ships a paste-ready /v1/simulate body; replaying it
			// must reproduce the planner's own configuration and metrics (and
			// hit the shared cache).
			req, err := json.Marshal(win)
			if err != nil {
				t.Fatal(err)
			}
			resp, body = post(t, ts.URL+"/v1/simulate", string(req))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("replaying the winner: status = %d, body %s", resp.StatusCode, body)
			}
			var sim SimResponse
			if err := json.Unmarshal(body, &sim); err != nil {
				t.Fatal(err)
			}
			if sim.Policy != win.Policy || sim.Algo != win.Algo {
				t.Fatalf("replayed %v/%v, winner is %v/%v (body %s)", sim.Policy, sim.Algo, win.Policy, win.Algo, req)
			}
			if !sim.Trainable {
				t.Fatalf("replayed winner not trainable: %s", sim.FailReason)
			}
			if sim.IterTimeMs != out.Result.IterTimeMs {
				t.Fatalf("replayed winner iter time %.3f != planned %.3f", sim.IterTimeMs, out.Result.IterTimeMs)
			}
		})
	}
}

func TestPlanStatsCounters(t *testing.T) {
	_, ts := newTestServer(t)
	_, body := post(t, ts.URL+"/v1/plan", `{"network": "alexnet", "batch": 8, "max_devices": 2}`)
	var out PlanResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Planner vdnn.PlanCounters `json:"planner"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Planner != out.Counters {
		t.Fatalf("stats planner counters %+v != plan counters %+v", stats.Planner, out.Counters)
	}
}

func TestPlanInfeasible(t *testing.T) {
	_, ts := newTestServer(t)
	// 0.4 GB cannot hold AlexNet's classifier-side weights at batch 8 under
	// any policy; the planner must answer 200 with the evidence, not error.
	resp, body := post(t, ts.URL+"/v1/plan",
		`{"network": "alexnet", "batch": 8, "max_devices": 2, "mem_cap_gb": 0.4}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var out PlanResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Feasible || out.Best != nil {
		t.Fatalf("expected an infeasible plan, got %+v", out)
	}
	if len(out.Evidence) == 0 {
		t.Fatal("infeasible plan must still carry the evidence table")
	}
}

func TestPlanValidation(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct {
		name, body, wantErr string
	}{
		{"negative cap", `{"network": "alexnet", "mem_cap_gb": -16}`, "mem_cap_gb"},
		{"unknown network", `{"network": "nope"}`, "unknown network"},
		{"budget too large", `{"network": "alexnet", "max_devices": 99}`, "max_devices"},
		{"unknown gpu", `{"network": "alexnet", "gpu": "tpu"}`, "unknown gpu"},
		{"unknown topology", `{"network": "alexnet", "topology": "mesh"}`, "unknown topology"},
		{"unknown objective", `{"network": "alexnet", "objective": "watts"}`, "unknown objective"},
		{"unknown field", `{"network": "alexnet", "bacth": 8}`, "bacth"},
		{"bad codec", `{"network": "alexnet", "codecs": ["lzma"]}`, "invalid request body"},
		{"negative deadline", `{"network": "alexnet", "deadline_ms": -1}`, "deadline_ms"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := post(t, ts.URL+"/v1/plan", tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, body %s", resp.StatusCode, body)
			}
			var e struct{ Error, Code string }
			if err := json.Unmarshal(body, &e); err != nil {
				t.Fatal(err)
			}
			if e.Code != "invalid" {
				t.Fatalf("code = %q, body %s", e.Code, body)
			}
		})
	}
}

func TestPlanDeadline(t *testing.T) {
	_, ts := newTestServer(t)
	resp, body := post(t, ts.URL+"/v1/plan",
		`{"network": "vgg16", "batch": 64, "max_devices": 4, "deadline_ms": 1}`)
	if resp.StatusCode != http.StatusRequestTimeout {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var e struct{ Code string }
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatal(err)
	}
	if e.Code != "deadline" {
		t.Fatalf("code = %q, body %s", e.Code, body)
	}
}
