package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"hpcnmf/internal/cluster"
	"hpcnmf/internal/serve"
	"hpcnmf/internal/store"
)

// The fleet under test: three instances, every model on two of them,
// one shared filesystem store — the smallest cluster in which a
// request can be served locally, forwarded, and survive one instance.
const (
	fleetSize     = 3
	fleetReplicas = 2
)

// instance is one cluster member: a serve.Server behind a cluster
// router behind a real loopback TCP listener.
type instance struct {
	addr string
	srv  *serve.Server
	hs   *http.Server
}

type fleet struct {
	ins    []*instance
	dir    string
	client *http.Client
}

// bootFleet starts the instances over store directory dir with the
// default serve.Options (plus the program's own request tracing when
// traceEvents is set, for the tracing-overhead comparison).
func bootFleet(dir string, traceEvents bool) (*fleet, error) {
	f := &fleet{dir: dir, client: &http.Client{
		Timeout:   20 * time.Second,
		Transport: &http.Transport{MaxIdleConns: 256, MaxIdleConnsPerHost: 64},
	}}
	lns := make([]net.Listener, fleetSize)
	peers := make([]string, fleetSize)
	// fail releases what a half-built fleet holds: the instances already
	// serving and the listeners no instance owns yet.
	fail := func(err error) (*fleet, error) {
		f.close()
		for _, ln := range lns[len(f.ins):] {
			if ln != nil {
				ln.Close()
			}
		}
		return nil, err
	}
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fail(err)
		}
		lns[i], peers[i] = ln, ln.Addr().String()
	}
	for i, ln := range lns {
		self := peers[i]
		fs, err := store.NewFS(dir)
		if err != nil {
			return fail(err)
		}
		topo, err := cluster.NewTopology(peers, fleetReplicas)
		if err != nil {
			return fail(err)
		}
		// The router wraps the server, so the commit hooks reach it
		// through a pointer stored before the listener accepts.
		var rtp atomic.Pointer[cluster.Router]
		srv := serve.New(serve.Options{
			Durable:     fs,
			TraceEvents: traceEvents,
			WarmFilter:  func(id string) bool { return topo.IsOwner(self, id) },
			OnCommit: func(id string) {
				if r := rtp.Load(); r != nil {
					r.FanOutCommit(id)
				}
			},
			OnDelete: func(id string) {
				if r := rtp.Load(); r != nil {
					r.FanOutDelete(id)
				}
			},
		})
		rt, err := cluster.New(srv, cluster.Options{Self: self, Peers: peers, Replicas: fleetReplicas})
		if err != nil {
			srv.Close()
			return fail(err)
		}
		rtp.Store(rt)
		hs := &http.Server{Handler: rt}
		go hs.Serve(ln) // returns ErrServerClosed at close
		f.ins = append(f.ins, &instance{addr: self, srv: srv, hs: hs})
	}
	return f, nil
}

// close stops accepting, drains, and stops every instance's workers.
func (f *fleet) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, in := range f.ins {
		in.hs.Shutdown(ctx)
	}
	for _, in := range f.ins {
		in.srv.Close()
	}
	f.client.CloseIdleConnections()
}

// post sends one JSON body and returns the status, the answering
// shard and the response bytes.
func (f *fleet) post(addr, path string, body []byte) (status int, shard string, out []byte, err error) {
	resp, err := f.client.Post("http://"+addr+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	out, err = io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get(cluster.ShardHeader), out, err
}

// fit submits a fit through entry and polls the answering shard until
// the job is done: durable in the store and fanned out to its replica.
func (f *fleet) fit(entry string, body []byte) (*serve.JobInfo, error) {
	status, shard, out, err := f.post(entry, "/v1/fit", body)
	if err != nil {
		return nil, err
	}
	if status != http.StatusAccepted {
		return nil, fmt.Errorf("fit answered %d: %s", status, out)
	}
	var acc struct {
		Job string `json:"job"`
	}
	if err := json.Unmarshal(out, &acc); err != nil {
		return nil, err
	}
	if shard == "" {
		return nil, fmt.Errorf("fit response names no shard")
	}
	for deadline := time.Now().Add(60 * time.Second); time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
		resp, err := f.client.Get("http://" + shard + "/v1/jobs/" + acc.Job)
		if err != nil {
			return nil, err
		}
		var info serve.JobInfo
		err = json.NewDecoder(resp.Body).Decode(&info)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		switch info.State {
		case serve.JobDone:
			return &info, nil
		case serve.JobFailed:
			return nil, fmt.Errorf("job %s failed: %s", acc.Job, info.Error)
		}
	}
	return nil, fmt.Errorf("job %s did not finish", acc.Job)
}

// projection is the outcome of one POST /v1/project.
type projection struct {
	latency   time.Duration // from due (open loop) or send (closed loop) to the last response byte
	at        time.Duration // since the phase began: when the answer arrived (closed loop), when the request was due (open loop)
	lag       time.Duration // open loop: how long after its due time the request was sent
	forwarded bool          // answered by another shard than the one it entered
	status    int
}

// project sends one single-column projection through entry and checks
// the answer: k non-negative coefficients and a finite residual.
func (f *fleet) project(e *env, entry string, body []byte, k int) (shard string, status int, raw []byte) {
	status, shard, out, err := f.post(entry, "/v1/project", body)
	e.attempt(1)
	if err != nil || status != http.StatusOK {
		e.fail("project via %s: status %d err %v", entry, status, err)
		return shard, status, out
	}
	var resp serve.ProjectResponse
	if err := json.Unmarshal(out, &resp); err != nil || len(resp.H) != 1 || len(resp.H[0]) != k || len(resp.Residuals) != 1 {
		e.fail("project via %s: malformed answer (%v)", entry, err)
		return shard, status, out
	}
	for _, v := range resp.H[0] {
		if v < 0 || math.IsNaN(v) {
			e.fail("project via %s: coefficient %v", entry, v)
			return shard, status, out
		}
	}
	if r := resp.Residuals[0]; math.IsNaN(r) || math.IsInf(r, 0) {
		e.fail("project via %s: residual %v", entry, r)
	}
	return shard, status, out
}
