// Command nmfserve runs the batched-projection model server: fitted
// NMF models are held resident (basis + cached Gram) and new data
// columns are projected onto them over HTTP, with concurrent requests
// coalesced into stacked NNLS solves.
//
//	nmfserve -addr localhost:7600
//	curl -X POST :7600/v1/fit -d '{"model":"m","rows":4,"cols":3,"data":[...],"k":2}'
//	curl :7600/v1/jobs/fit-1
//	curl -X POST :7600/v1/project -d '{"model":"m","column":[...]}'
//	curl :7600/metrics
//
// Shutdown (SIGINT/SIGTERM) is graceful: the listener stops accepting,
// in-flight fits and queued projections drain, then the process exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"hpcnmf"
	"hpcnmf/internal/cluster"
	"hpcnmf/internal/nnls"
	"hpcnmf/internal/obs"
	"hpcnmf/internal/serve"
	"hpcnmf/internal/store"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "nmfserve: %v\n", err)
		os.Exit(1)
	}
}

// run is the whole command behind a testable seam: flags come from
// args, output goes to the writers, and failures are returned instead
// of exiting the process. It serves until SIGINT/SIGTERM.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("nmfserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr       = fs.String("addr", "localhost:7600", "listen address (use :0 for an ephemeral port)")
		maxBatch   = fs.Int("max-batch", 32, "max columns per stacked NNLS solve")
		queueCap   = fs.Int("queue", 0, "pending projection columns per model before 429 (0 = 4x max-batch)")
		budgetMB   = fs.Int64("budget-mb", 256, "resident model budget in MiB; past it the LRU model is evicted (< 0 disables)")
		fitWorkers = fs.Int("fit-workers", 2, "async fit worker pool size")
		fitQueue   = fs.Int("fit-queue", 8, "pending fit jobs before 429 + Retry-After")
		solverName = fs.String("solver", "bpp", "projection NNLS solver: "+nnls.Names())
		sweeps     = fs.Int("sweeps", 8, "inner sweeps per projection for the inexact solvers (BPP ignores it)")
		tracePath  = fs.String("trace", "", "write a Chrome trace_event JSON of request/batch/solve/kernel spans on shutdown")
		drainSecs  = fs.Int("drain-timeout", 30, "seconds to wait for in-flight HTTP requests on shutdown")
		pprofOn    = fs.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/ for continuous profiling")
		logSpec    = fs.String("log", "info", "log level spec: a default level plus per-component overrides, e.g. 'info,serve=debug'")
		storeDir   = fs.String("store", "", "durable model store directory; fitted models are committed here and warm-started on boot")
		peerList   = fs.String("peers", "", "comma-separated static cluster peer list (host:port,...); enables sharded serving")
		selfAddr   = fs.String("self", "", "this instance's advertised address — must appear in -peers (cluster mode)")
		replicas   = fs.Int("replicas", 1, "replication factor: how many peers hold each model resident (cluster mode)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	kind, err := hpcnmf.ParseSolver(*solverName)
	if err != nil {
		return err
	}
	budget := *budgetMB << 20
	if *budgetMB < 0 {
		budget = -1
	}

	logger, err := obs.New(stderr, *logSpec)
	if err != nil {
		return err
	}

	// Cluster mode: validate the topology before anything listens, so a
	// misconfigured instance fails fast instead of serving wrong shards.
	var topo *cluster.Topology
	if *peerList != "" {
		if *selfAddr == "" {
			return fmt.Errorf("-peers requires -self (this instance's advertised address)")
		}
		if *storeDir == "" {
			return fmt.Errorf("-peers requires -store (the shared durable store is the cluster's source of truth)")
		}
		if *replicas < 1 {
			return fmt.Errorf("-replicas must be >= 1")
		}
		topo, err = cluster.NewTopology(strings.Split(*peerList, ","), *replicas)
		if err != nil {
			return err
		}
		if !topo.Contains(*selfAddr) {
			return fmt.Errorf("-self %q is not in -peers %q", *selfAddr, *peerList)
		}
	} else if *selfAddr != "" {
		return fmt.Errorf("-self is only meaningful with -peers")
	}

	var durable *store.FS
	if *storeDir != "" {
		durable, err = store.NewFS(*storeDir)
		if err != nil {
			return fmt.Errorf("opening model store: %w", err)
		}
	}

	opts := serve.Options{
		MaxBatch:      *maxBatch,
		QueueCap:      *queueCap,
		StoreBudget:   budget,
		FitWorkers:    *fitWorkers,
		FitQueue:      *fitQueue,
		ProjectSolver: kind,
		ProjectSweeps: *sweeps,
		TraceEvents:   *tracePath != "",
		Pprof:         *pprofOn,
		Logger:        logger,
	}
	if durable != nil {
		opts.Durable = durable
	}
	// The router wraps the server, so it is built after serve.New; the
	// commit hooks reach it through an atomic pointer, which is stored
	// before the listener accepts the first request.
	var rtp atomic.Pointer[cluster.Router]
	if topo != nil {
		self := *selfAddr
		opts.WarmFilter = func(id string) bool { return topo.IsOwner(self, id) }
		opts.OnCommit = func(id string) {
			if r := rtp.Load(); r != nil {
				r.FanOutCommit(id)
			}
		}
		opts.OnDelete = func(id string) {
			if r := rtp.Load(); r != nil {
				r.FanOutDelete(id)
			}
		}
	}
	srv := serve.New(opts)

	var handler http.Handler = srv
	if topo != nil {
		rt, err := cluster.New(srv, cluster.Options{
			Self:     *selfAddr,
			Peers:    topo.Peers(),
			Replicas: topo.Replicas(),
			Logger:   logger,
		})
		if err != nil {
			srv.Close()
			return err
		}
		rtp.Store(rt)
		handler = rt
		fmt.Fprintf(stdout, "cluster shard %s of %d peers, replication %d\n", *selfAddr, len(topo.Peers()), topo.Replicas())
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		srv.Close()
		return err
	}
	hs := httpServer(handler)
	fmt.Fprintf(stdout, "listening on %s\n", ln.Addr())

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()

	select {
	case err := <-errCh:
		srv.Close()
		return err
	case sig := <-sigCh:
		fmt.Fprintf(stdout, "received %v: draining in-flight work\n", sig)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(*drainSecs)*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		fmt.Fprintf(stderr, "nmfserve: HTTP shutdown: %v\n", err)
	}
	srv.Close() // drains accepted fits, then queued projections
	if *tracePath != "" {
		if tr := srv.Trace(); tr != nil {
			if err := tr.WriteChromeFile(*tracePath); err != nil {
				return fmt.Errorf("writing trace: %w", err)
			}
			fmt.Fprintf(stdout, "wrote trace %s (%d events)\n", *tracePath, len(tr.Events))
		}
	}
	fmt.Fprintln(stdout, "drained, shutting down")
	return nil
}

// A client gets readHeaderTimeout to send its request line and headers
// and readTimeout for the whole request, body included: room for a
// serve.MaxBodyBytes (32 MiB) body at about 280 KB/s. Without them a
// client that trickles its headers holds a connection and a goroutine
// for as long as it likes. Neither limits a response (net/http lifts
// the read deadline once the body is read, so a job's progress stream
// lasts as long as its fit); an idle keep-alive connection is closed
// after readTimeout.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 2 * time.Minute
)

// httpServer is the server run listens with.
func httpServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout, ReadTimeout: readTimeout}
}
