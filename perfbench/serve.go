package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"vdnn"
	"vdnn/internal/serve"
	"vdnn/internal/sweep"
)

type serveKind int

const (
	warmSimulate serveKind = iota
	warmPlan
	coldSimulate
)

func (k serveKind) route() string {
	if k == warmPlan {
		return "/v1/plan"
	}
	return "/v1/simulate"
}

func (k serveKind) warm() bool { return k != coldSimulate }

// serveCacheBound bounds the result cache as a long-lived daemon does, so
// the retained heap of a cold run stops growing once the cache is full.
const serveCacheBound = 4096

// serveSession drives one route of a serve.Server in-process through
// ServeHTTP from one closed-loop client. Warm sessions replay a fixed pool whose
// results a restarted daemon finds in its store; cold sessions send a fresh
// configuration on every request.
type serveSession struct {
	kind serveKind
	tr   *tracer
	dir  string
	st   *vdnn.Store
	srv  *serve.Server

	stream func(i int) (body []byte, spec *simSpec) // request i; spec is set on cold streams
	next   int
	cl     client

	trainable, decoded int // cold simulate: trainable responses among the decoded ones

	primed [][]byte // warm: the response each pool body got when it was computed
	order  []int    // warm: seeded permutation of the pool

	seed    int64
	samples []cold // cold simulate: seeded sample re-checked by verify

	before serve.StatsResponse // /v1/stats when the traced phase began
}

type cold struct {
	spec *simSpec
	body []byte
}

func setupServe(kind serveKind) func(seed int64, tr *tracer, tmp string) (session, error) {
	return func(seed int64, tr *tracer, tmp string) (session, error) {
		dir, err := os.MkdirTemp(tmp, "store-")
		if err != nil {
			return nil, err
		}
		s := &serveSession{kind: kind, tr: tr, dir: dir, seed: seed}
		s.cl.init(kind.route())
		if err := s.start(); err != nil {
			s.close()
			return nil, err
		}
		return s, nil
	}
}

// start builds the request stream and the server. A warm session first fills
// the store from a priming server, then restarts: the server it keeps is a
// fresh simulator over that store, so its first pass reads from disk. The
// priming server runs at parallelism 1, so priming is the same work on every
// run whatever the host's scheduling.
func (s *serveSession) start() error {
	rng := rand.New(rand.NewSource(s.seed))
	switch s.kind {
	case warmSimulate, warmPlan:
		pool := warmSimPool()
		if s.kind == warmPlan {
			pool = warmPlanPool()
		}
		s.order = rng.Perm(len(pool))
		s.stream = func(i int) ([]byte, *simSpec) { return pool[s.order[i%len(pool)]], nil }
		prime, err := s.open(1)
		if err != nil {
			return err
		}
		s.primed = make([][]byte, len(pool))
		for i, body := range pool {
			code, out := call(prime, http.MethodPost, s.kind.route(), body)
			if code != http.StatusOK {
				return fmt.Errorf("priming %s: status %d: %s", s.kind.route(), code, out)
			}
			s.primed[i] = out
		}
		prime.Close()
		for _, out := range s.primed {
			if err := validBody(s.kind, out); err != nil {
				return err
			}
		}
		if we := s.st.Stats().WriteErrors; we != 0 {
			return fmt.Errorf("priming store: %d write errors", we)
		}
	case coldSimulate:
		s.stream = coldSimStream(rng)
	}
	var err error
	s.srv, err = s.open(nproc)
	return err
}

// open starts a fresh simulator at parallelism par and a server over the
// session's store.
func (s *serveSession) open(par int) (*serve.Server, error) {
	st, err := vdnn.OpenStore(s.dir)
	if err != nil {
		return nil, err
	}
	s.st = st
	var rs vdnn.ResultStore = st
	if s.tr.traced {
		rs = storeTimer{st: st, tr: s.tr}
	}
	sim := vdnn.NewSimulator(vdnn.WithParallelism(par), vdnn.WithCacheBound(serveCacheBound), vdnn.WithStore(rs))
	return serve.New(sim, serve.WithStore(st)), nil
}

// call sends one request through the handler and returns status and body.
func call(h http.Handler, method, route string, body []byte) (int, []byte) {
	req := httptest.NewRequest(method, route, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

// client is the closed-loop client's request and response writer, reused
// from op to op so that the harness allocates next to nothing per request.
type client struct {
	req  *http.Request
	body body
	w    writer
}

func (c *client) init(route string) {
	c.req = httptest.NewRequest(http.MethodPost, route, nil)
	c.req.Body = &c.body
	c.w.header = http.Header{}
}

// send resets the request to carry b and the writer to empty, and serves
// the request; the span around ServeHTTP is serve.handler_us.
func (c *client) send(h http.Handler, b []byte, tr *tracer) {
	c.body.Reset(b)
	c.req.ContentLength = int64(len(b))
	c.w.reset()
	t0 := time.Now()
	h.ServeHTTP(&c.w, c.req)
	tr.record("serve.handler_us", time.Since(t0), true)
}

// body is a request body over a reusable reader.
type body struct{ bytes.Reader }

func (*body) Close() error { return nil }

// writer is a minimal http.ResponseWriter that keeps status and body.
type writer struct {
	header http.Header
	code   int
	out    bytes.Buffer
}

func (w *writer) Header() http.Header { return w.header }

func (w *writer) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *writer) Write(b []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.out.Write(b)
}

func (w *writer) reset() {
	clear(w.header)
	w.code = 0
	w.out.Reset()
}

// op sends the next request. Its timed region runs from resetting the
// client's request to ServeHTTP's return; the body's generation before it
// and the response checks after it are outside.
func (s *serveSession) op() (opTime, error) {
	i := s.next
	s.next++
	body, spec := s.stream(i)
	cl := &s.cl

	sw := startWatch()
	cl.send(s.srv, body, s.tr)
	d := sw.stop()
	s.tr.op(d.wall)

	out := cl.w.out.Bytes()
	if cl.w.code != http.StatusOK {
		return d, fmt.Errorf("%s request %d: status %d: %s", s.kind.route(), i, cl.w.code, out)
	}
	if s.kind.warm() {
		if want := s.primed[s.order[i%len(s.order)]]; !bytes.Equal(out, want) {
			return d, fmt.Errorf("%s request %d: body differs from the priming response", s.kind.route(), i)
		}
		return d, nil
	}
	var r serve.SimResponse
	if err := json.Unmarshal(out, &r); err != nil {
		return d, fmt.Errorf("request %d: /v1/simulate response does not decode: %w", i, err)
	}
	s.decoded++
	if r.Trainable {
		s.trainable++
	}
	if spec != nil && sampled(s.seed, i) && len(s.samples) < maxSamples {
		s.samples = append(s.samples, cold{spec: spec, body: bytes.Clone(out)})
	}
	return d, nil
}

// validBody checks that a body decodes as the route's response.
func validBody(kind serveKind, b []byte) error {
	var r any = &serve.SimResponse{}
	if kind == warmPlan {
		r = &serve.PlanResponse{}
	}
	if err := json.Unmarshal(b, r); err != nil {
		return fmt.Errorf("%s response does not decode: %w", kind.route(), err)
	}
	return nil
}

const maxSamples = 24

// sampled picks a seeded 1-in-64 sample of a cold stream for re-checking.
func sampled(seed int64, i int) bool { return mix(^seed, i)%64 == 0 }

// verify re-checks the sampled cold /v1/simulate responses against a direct
// vdnn.RunContext on a freshly built network, and requires that the store
// never failed a write. It also prints the trainable share of the cold
// responses, so a reader can see how much of the stream ran a full
// iteration rather than stopping at an out-of-memory failure.
func (s *serveSession) verify() error {
	if n := s.decoded; n > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d cold /v1/simulate responses trainable (%.1f%%)\n",
			s.trainable, n, 100*float64(s.trainable)/float64(n))
	}
	for _, c := range s.samples {
		if err := c.spec.check(c.body); err != nil {
			return err
		}
	}
	if we := s.st.Stats().WriteErrors; we != 0 {
		return fmt.Errorf("store: %d write errors", we)
	}
	return nil
}

// stats reads GET /v1/stats through the handler.
func (s *serveSession) stats() serve.StatsResponse {
	var r serve.StatsResponse
	if code, out := call(s.srv, http.MethodGet, "/v1/stats", nil); code == http.StatusOK {
		_ = json.Unmarshal(out, &r) // a zero snapshot only zeroes the counters
	}
	return r
}

func (s *serveSession) mark() { s.before = s.stats() }

func (s *serveSession) layers(out metricSet, ops int) {
	after := s.stats()
	a, b := after.EngineStats, s.before.EngineStats
	sweepLayers(out, sweep.Stats{
		Simulations: a.Simulations - b.Simulations, Structures: a.Structures - b.Structures,
		Priced: a.Priced - b.Priced, Hits: a.Hits - b.Hits, Coalesced: a.Coalesced - b.Coalesced,
		Evictions: a.Evictions - b.Evictions, Canceled: a.Canceled - b.Canceled,
	}, ops)
	per := func(v int64) float64 { return float64(v) / float64(max(ops, 1)) }
	pa, pb := after.Planner, s.before.Planner
	out.set("plan.evaluated", per(int64(pa.Evaluated-pb.Evaluated)), "count/op")
	out.set("plan.pruned", per(int64(pa.Pruned-pb.Pruned)), "count/op")
	out.set("plan.invalid", per(int64(pa.Invalid-pb.Invalid)), "count/op")
	if after.Store != nil && s.before.Store != nil {
		out.set("store.hits", per(after.Store.Hits-s.before.Store.Hits), "count/op")
		out.set("store.writes", per(after.Store.Writes-s.before.Store.Writes), "count/op")
	}
	out.set("store.write_errors", float64(s.st.Stats().WriteErrors), "count")
	out.set("serve.rejected_overload", float64(after.Serve.RejectedOverload), "count")
	out.set("serve.deadline_exceeded", float64(after.Serve.DeadlineExceeded), "count")
}

func (s *serveSession) close() {
	if s.srv != nil {
		s.srv.Close()
	}
	os.RemoveAll(s.dir)
}

// storeTimer is the ResultStore a traced run installs: it times every Load
// and Save of the file-backed store, set-up included, so a warm workload's
// first pass over the store is what its store.load_us measures.
type storeTimer struct {
	st *vdnn.Store
	tr *tracer
}

func (t storeTimer) Load(net *vdnn.Network, cfg vdnn.Config) (*vdnn.Result, bool) {
	t0 := time.Now()
	r, ok := t.st.Load(net, cfg)
	t.tr.add("store.load_us", time.Since(t0))
	return r, ok
}

func (t storeTimer) Save(net *vdnn.Network, cfg vdnn.Config, res *vdnn.Result) {
	t0 := time.Now()
	t.st.Save(net, cfg, res)
	t.tr.add("store.save_us", time.Since(t0))
}

// --- request streams --------------------------------------------------------

// simSpec is one generated /v1/simulate configuration.
type simSpec struct {
	Network string
	Batch   int
	MemGB   int
	Policy  vdnn.Policy
	Algo    vdnn.AlgoMode
	Codec   vdnn.Codec
	Devices int
	Stages  int
}

// body is the request's JSON. It is built field by field rather than by
// marshaling serve.SimRequest: that type's omitempty enums drop the zero
// values ("base" policy, "m" algorithm), which the daemon would then read as
// its defaults.
func (p *simSpec) body() []byte {
	r := map[string]any{"network": p.Network, "batch": p.Batch, "policy": p.Policy, "algo": p.Algo,
		"codec": p.Codec, "devices": p.Devices, "stages": p.Stages, "topology": p.topology(), "host_gb": serveHostGB}
	if p.MemGB > 0 {
		r["gpu_mem_gb"] = p.MemGB
	}
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // every field marshals
	}
	return b
}

// serveHostGB sizes host DRAM for the generated requests: 256 GB, a
// four-GPU training server's memory. The daemon's default, 64 GB (the
// paper's single-GPU testbed), is split across a pipeline's stages, and at
// the larger batches of the stream a four-stage vDNN-dyn request then fails
// its oracle rerun for lack of pinned host memory.
const serveHostGB = 256

func (p *simSpec) topology() string {
	if p.Devices > 1 || p.Stages > 1 {
		return "shared-x16"
	}
	return ""
}

// check compares a /v1/simulate response with a direct simulation of the
// same configuration, built the way the daemon resolves the request.
func (p *simSpec) check(body []byte) error {
	var got serve.SimResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	net, err := vdnn.BuildNetwork(p.Network, p.Batch)
	if err != nil {
		return err
	}
	spec := vdnn.TitanX()
	if p.MemGB > 0 {
		spec.MemBytes = int64(p.MemGB) << 30
	}
	top, _ := vdnn.TopologyByName(p.topology())
	cfg := vdnn.Config{Spec: spec, Policy: p.Policy, Algo: p.Algo, Prefetch: vdnn.PrefetchJIT,
		Compression: vdnn.Compression{Codec: p.Codec}, Devices: p.Devices, Stages: p.Stages, Topology: top,
		HostBytes: serveHostGB << 30}
	want, err := vdnn.RunContext(context.Background(), net, cfg)
	if err != nil {
		return fmt.Errorf("direct run of %+v: %w", *p, err)
	}
	if got.Trainable != want.Trainable || got.IterTimeMs != want.IterTime.Msec() ||
		got.MaxUsageBytes != want.MaxUsage || got.AvgUsageBytes != want.AvgUsage ||
		got.OffloadBytes != want.OffloadBytes || got.EnergyJ != want.Energy.TotalJ() {
		return fmt.Errorf("/v1/simulate %+v disagrees with a direct run: served trainable=%v iter=%v max=%d, direct trainable=%v iter=%v max=%d",
			*p, got.Trainable, got.IterTimeMs, got.MaxUsageBytes, want.Trainable, want.IterTime.Msec(), want.MaxUsage)
	}
	return nil
}

type policyAlgo struct {
	p vdnn.Policy
	a vdnn.AlgoMode
}

var servePolicies = []policyAlgo{
	{vdnn.Baseline, vdnn.PerfOptimal}, {vdnn.VDNNAll, vdnn.MemOptimal},
	{vdnn.VDNNConv, vdnn.PerfOptimal}, {vdnn.VDNNDyn, 0},
}

// warmSimPool is the fixed /v1/simulate pool of the warm workload: 4
// networks x 4 policies x {single, single+zvc, 2-way data parallel, 2-stage
// pipeline}. The seed only permutes the order it is sent in.
func warmSimPool() [][]byte {
	nets := []struct {
		name  string
		batch int
	}{{"alexnet", 128}, {"overfeat", 128}, {"googlenet", 128}, {"vgg16", 64}}
	var pool [][]byte
	for _, n := range nets {
		for _, pa := range servePolicies {
			for mode := 0; mode < 4; mode++ {
				p := simSpec{Network: n.name, Batch: n.batch, Policy: pa.p, Algo: pa.a}
				switch mode {
				case 1:
					p.Codec = vdnn.CodecZVC
				case 2:
					p.Devices = 2
				case 3:
					p.Stages = 2
				}
				pool = append(pool, p.body())
			}
		}
	}
	return pool
}

// warmPlanPool is the fixed /v1/plan pool of the warm workload: 4 networks x
// 2 objectives at batch 128 under an 8 GB cap, with a budget of two devices.
// The budget keeps the cold searches that priming runs cheap (59
// simulations, about 0.15 s on a 2-vCPU x86-64 host at parallelism 1); the
// energy problem of each network reuses its time problem's candidates.
func warmPlanPool() [][]byte {
	var pool [][]byte
	for _, n := range []string{"alexnet", "overfeat", "googlenet", "vgg16"} {
		for _, obj := range []string{"time", "energy"} {
			b, _ := json.Marshal(serve.PlanRequest{Network: n, Batch: 128, MemCapGB: 8, MaxDevices: 2, Objective: obj})
			pool = append(pool, b)
		}
	}
	return pool
}

// stratified orders a stream over cells, the dimensions that dominate a
// request's cost. Every block of len(cells) consecutive requests holds each
// cell once, so any prefix of the stream has the same mix. The seed sets the
// order of the cells within each block after the first; the first block's
// order is fixed, so set-up's warm-up requests are the same for every seed.
// The k-th request of a cell takes the k-th entry of that cell's permutation
// of the other dimensions, which is also fixed: a run sends the same
// requests whatever the seed, in a different order, and no request repeats
// an earlier one.
type stratified struct {
	first []int   // order of the cells in the first block
	order []int   // seeded order of the cells in later blocks
	rest  [][]int // per cell: permutation of the other dimensions
}

func newStratified(rng *rand.Rand, cells, rest int) stratified {
	fixed := rand.New(rand.NewSource(1))
	s := stratified{first: fixed.Perm(cells), order: rng.Perm(cells), rest: make([][]int, cells)}
	for c := range s.rest {
		s.rest[c] = fixed.Perm(rest)
	}
	return s
}

// at returns request i's cell, its occurrence k within the cell, and its
// index into the other dimensions.
func (s stratified) at(i int) (cell, k, rest int) {
	n := len(s.order)
	k = i / n
	if k == 0 {
		cell = s.first[i]
	} else {
		cell = s.order[(i+k)%n] // rotate the order from block to block
	}
	r := s.rest[cell]
	return cell, k, r[k%len(r)]
}

// mix hashes two integers into a uniform value.
func mix(a int64, b int) uint64 {
	h := uint64(a)*0x9e3779b97f4a7c15 ^ uint64(b)*0xbf58476d1ce4e5b9
	h ^= h >> 31
	h *= 0x94d049bb133111eb
	return h ^ h>>29
}

// The cold stream's dimensions. Batches run from 32 to 540 in steps of 4,
// the range of the paper's and the figures' batches (64-256) with margin;
// every one is divisible by every stage count.
var (
	coldNets   = []string{"alexnet", "overfeat", "googlenet", "vgg16", "resnet50"}
	coldModes  = [][2]int{{1, 1}, {2, 1}, {4, 1}, {1, 2}, {1, 4}} // devices, stages
	coldPolicy = []policyAlgo{
		{vdnn.Baseline, vdnn.PerfOptimal}, {vdnn.Baseline, vdnn.MemOptimal},
		{vdnn.VDNNAll, vdnn.MemOptimal}, {vdnn.VDNNAll, vdnn.PerfOptimal},
		{vdnn.VDNNConv, vdnn.MemOptimal}, {vdnn.VDNNConv, vdnn.PerfOptimal}, {vdnn.VDNNDyn, 0},
	}
	coldCodecs = []vdnn.Codec{vdnn.CodecNone, vdnn.CodecZVC, vdnn.CodecRLE}
	coldCaps   = []int{3, 4, 6, 8, 12, 16, 24, 32}
	coldCells  = len(coldNets) * len(coldModes) * len(coldPolicy)
)

const coldBatches = 128 // 32, 36, ..., 540

// coldSimStream generates fresh /v1/simulate requests. The cells are
// network x parallel mode x policy; batch and codec come from each cell's
// permutation, so the first 384 requests of a cell each simulate a network
// instance with a batch and codec no earlier request of that cell used
// (nothing is priced from an earlier structure); the device capacity is
// hashed from cell and k.
func coldSimStream(rng *rand.Rand) func(int) ([]byte, *simSpec) {
	st := newStratified(rng, coldCells, coldBatches*len(coldCodecs))
	return func(i int) ([]byte, *simSpec) {
		cell, k, rest := st.at(i)
		pols := len(coldPolicy)
		m, pa := coldModes[cell/pols%len(coldModes)], coldPolicy[cell%pols]
		p := &simSpec{Network: coldNets[cell/(pols*len(coldModes))], Batch: 32 + 4*(rest/len(coldCodecs)),
			Codec: coldCodecs[rest%len(coldCodecs)], MemGB: coldCaps[mix(int64(cell), k)%uint64(len(coldCaps))],
			Policy: pa.p, Algo: pa.a, Devices: m[0], Stages: m[1]}
		return p.body(), p
	}
}
