// vdnn-serve is the HTTP daemon of the library: a JSON API serving vDNN
// simulations from a shared, deduplicated result cache under concurrency.
//
//	vdnn-serve -addr :8080 -j 8 -cache 65536 -drain 30s -store /var/lib/vdnn/results
//
//	curl localhost:8080/healthz
//	curl localhost:8080/readyz
//	curl localhost:8080/v1/networks
//	curl -d '{"network":"vgg16","batch":256}' localhost:8080/v1/simulate
//	curl -d '{"jobs":[{"network":"alexnet"},{"network":"vgg16","policy":"base","algo":"p"}]}' \
//	     localhost:8080/v1/sweep
//	curl -d '{"jobs":[{"network":"alexnet"},{"network":"vgg16"}]}' localhost:8080/v1/jobs
//	curl localhost:8080/v1/jobs/<id>      # NDJSON point stream + summary
//	curl localhost:8080/v1/stats
//	curl localhost:8080/metrics           # Prometheus text exposition
//
// With -store DIR, every finished simulation is persisted to DIR and served
// from there after a restart (or by another replica sharing the directory):
// a repeated sweep against a warm store costs zero simulations. The store
// tolerates torn writes — corrupt records are skipped and logged at open,
// never fatal.
//
// An async job (POST /v1/jobs) is admitted like any request: it holds one
// of the -queue positions from submission until it finishes and executes in
// one of the -j slots, its points running in parallel as a /v1/sweep's do.
// A submission past a full queue is a 503 "overloaded", safe to retry.
//
// Repeated and concurrent identical requests are simulated once; every
// simulation is deterministic, so identical requests always produce
// identical responses. See internal/serve for the wire formats, error
// taxonomy, and admission-control behavior.
//
// Diagnostics: -pprof localhost:6060 serves net/http/pprof on a separate
// listener (CPU/heap/goroutine profiles of the live daemon); it is off by
// default and never shares the public listener.
//
// Shutdown is graceful: on SIGINT/SIGTERM the daemon stops admitting work
// (/readyz flips to 503, new simulations fast-fail with 503 "draining"),
// waits up to -drain for in-flight requests, then hard-cancels stragglers
// through the same context path a client disconnect uses. A second signal
// skips the wait.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux, served only via -pprof
	"os"
	"os/signal"
	"syscall"
	"time"

	"vdnn"
	"vdnn/internal/serve"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		jobs     = flag.Int("j", 0, "max top-level simulations in flight (0 = all cores)")
		cache    = flag.Int("cache", 65536, "max cached results (0 = unbounded; keep a bound on long-lived daemons)")
		queue    = flag.Int("queue", -1, "max requests waiting for a slot before 503 (-1 = 4x concurrency)")
		deadline = flag.Duration("deadline", 2*time.Minute, "default per-request deadline (0 = none)")
		maxDL    = flag.Duration("max-deadline", 10*time.Minute, "ceiling on client deadline_ms (0 = no ceiling)")
		drain    = flag.Duration("drain", 30*time.Second, "graceful-drain budget before in-flight work is canceled")
		pprofA   = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060; empty = disabled)")
		storeDir = flag.String("store", "", "persist results to this directory and serve repeats from it (empty = memory only)")
		logJSON  = flag.Bool("log-json", false, "emit structured request logs as JSON (default: logfmt-style text)")
	)
	flag.Parse()

	// Profiling endpoint on its own listener, never the public one: the API
	// handler below is an explicit mux, so /debug/pprof is reachable only when
	// -pprof names an address (bind it to localhost in production).
	if *pprofA != "" {
		go func() {
			log.Printf("vdnn-serve: pprof listening on %s", *pprofA)
			if err := http.ListenAndServe(*pprofA, nil); err != nil {
				log.Printf("vdnn-serve: pprof server: %v", err)
			}
		}()
	}

	logHandler := slog.Handler(slog.NewTextHandler(os.Stderr, nil))
	if *logJSON {
		logHandler = slog.NewJSONHandler(os.Stderr, nil)
	}
	logger := slog.New(logHandler)

	simOpts := []vdnn.SimulatorOption{vdnn.WithParallelism(*jobs), vdnn.WithCacheBound(*cache)}
	serveOpts := []serve.Option{
		serve.WithQueueDepth(*queue),
		serve.WithDeadlines(*deadline, *maxDL),
		serve.WithLogger(logger),
	}
	if *storeDir != "" {
		st, err := vdnn.OpenStore(*storeDir)
		if err != nil {
			log.Fatalf("vdnn-serve: opening store %s: %v", *storeDir, err)
		}
		ss := st.Stats()
		log.Printf("vdnn-serve: store %s: %d records (%d corrupt skipped)",
			*storeDir, ss.Records, ss.CorruptSkipped)
		simOpts = append(simOpts, vdnn.WithStore(st))
		serveOpts = append(serveOpts, serve.WithStore(st))
	}
	sim := vdnn.NewSimulator(simOpts...)
	api := serve.New(sim, serveOpts...)

	// baseCtx parents every request context; canceling it is the hard-cancel
	// lever that reaches in-flight simulations when the drain budget runs out.
	baseCtx, cancelBase := context.WithCancel(context.Background())
	defer cancelBase()
	srv := &http.Server{
		Addr:              *addr,
		Handler:           api,
		ReadHeaderTimeout: 10 * time.Second,
		BaseContext:       func(net.Listener) context.Context { return baseCtx },
	}

	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigs
		log.Printf("vdnn-serve: %v: draining (budget %s; signal again to skip)", sig, *drain)
		api.StartDrain()
		go func() {
			<-sigs
			log.Printf("vdnn-serve: second signal: canceling in-flight work")
			api.Close()
			cancelBase()
		}()
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		// Accepted async jobs are part of the drain contract: wait for them
		// under the same budget before (or while) connections wind down.
		if err := api.DrainJobs(ctx); err != nil {
			log.Printf("vdnn-serve: drain budget exhausted: canceling async jobs (%v)", err)
			api.Close()
		}
		if err := srv.Shutdown(ctx); err != nil {
			// Budget exhausted: cancel the base context so every in-flight
			// simulation unwinds through its per-layer checks, then close.
			log.Printf("vdnn-serve: drain budget exhausted: canceling in-flight work (%v)", err)
			api.Close()
			cancelBase()
			srv.Close()
		}
	}()

	log.Printf("vdnn-serve: listening on %s (parallelism %d, cache bound %d)",
		*addr, sim.Parallelism(), sim.CacheBound())
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("vdnn-serve: %v", err)
	}
	st := sim.Stats()
	sst := api.Stats()
	log.Printf("vdnn-serve: bye (simulations %d, hits %d, coalesced %d, canceled %d, rejected %d)",
		st.Simulations, st.Hits, st.Coalesced, st.Canceled, sst.RejectedOverload+sst.RejectedDraining)
}
