package cluster_test

// The cluster proof: N in-process serving instances over one shared
// filesystem store, driven over real TCP. The conformance suite pins
// forwarded answers byte-identical to owner-direct ones for every
// N × R combination, and the chaos suite kills one instance
// mid-traffic (listener and connections torn down with no drain — the
// network-visible signature of SIGKILL) and asserts the ROADMAP
// deliverable: zero committed models lost, survivors keep serving,
// and a restarted instance warm-starts from the durable store.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hpcnmf/internal/cluster"
	"hpcnmf/internal/serve"
	"hpcnmf/internal/store"
)

// instance is one cluster member: a serve.Server behind a cluster
// router behind a real TCP listener.
type instance struct {
	addr string
	srv  *serve.Server
	rt   *cluster.Router
	topo *cluster.Topology // the ownership function its router was built with
	hs   *http.Server
}

// startInstance boots one member on ln. The shared store dir is the
// cluster's only shared state.
func startInstance(t *testing.T, ln net.Listener, self string, peers []string, replicas int, dir string) *instance {
	t.Helper()
	fsStore, err := store.NewFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := cluster.NewTopology(peers, replicas)
	if err != nil {
		t.Fatal(err)
	}
	// The router is built after the server (it wraps it), so the
	// commit hooks reach it through an atomic pointer; fits cannot
	// start before the HTTP listener below, which starts after Store.
	var rtp atomic.Pointer[cluster.Router]
	srv := serve.New(serve.Options{
		Durable:    fsStore,
		WarmFilter: func(id string) bool { return topo.IsOwner(self, id) },
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
	rt, err := cluster.New(srv, cluster.Options{Self: self, Peers: peers, Replicas: replicas})
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	rtp.Store(rt)
	hs := &http.Server{Handler: rt}
	go hs.Serve(ln)
	in := &instance{addr: self, srv: srv, rt: rt, topo: topo, hs: hs}
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
	})
	return in
}

// bootCluster starts N members with a common peer list over dir.
func bootCluster(t *testing.T, n, replicas int, dir string) []*instance {
	t.Helper()
	lns := make([]net.Listener, n)
	peers := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		peers[i] = ln.Addr().String()
	}
	ins := make([]*instance, n)
	for i := range ins {
		ins[i] = startInstance(t, lns[i], peers[i], peers, replicas, dir)
	}
	return ins
}

// kill tears the instance down with no drain: the listener closes and
// every open connection is severed mid-flight. The serve.Server object
// is intentionally left running (a real SIGKILL would stop it too, but
// nothing observable distinguishes the two from the network) — it is
// reaped by t.Cleanup.
func (in *instance) kill() { in.hs.Close() }

// --- HTTP helpers -----------------------------------------------------

var testClient = &http.Client{Timeout: 10 * time.Second}

func postJSON(addr, path string, v any) (*http.Response, []byte, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return nil, nil, err
	}
	resp, err := testClient.Post("http://"+addr+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp, out, err
}

func getJSON(addr, path string, v any) error {
	resp, err := testClient.Get("http://" + addr + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// fitSpec builds a small deterministic fit request for a model id.
func fitSpec(id string, seed uint64) serve.FitRequest {
	const rows, cols = 12, 8
	spec := serve.FitRequest{Model: id, Rows: rows, Cols: cols, K: 2, MaxIter: 5, Seed: seed}
	spec.Data = make([]float64, rows*cols)
	rng := rand.New(rand.NewSource(int64(seed) + 1))
	for i := range spec.Data {
		spec.Data[i] = 0.1 + rng.Float64()
	}
	return spec
}

func projBody(id string, seed int64) serve.ProjectRequest {
	col := make([]float64, 12)
	rng := rand.New(rand.NewSource(seed))
	for i := range col {
		col[i] = rng.Float64()
	}
	return serve.ProjectRequest{Model: id, Column: col}
}

// fitAndWait submits a fit via addr and polls the answering shard
// until the job is done. Returns the shard that ran it.
func fitAndWait(t *testing.T, addr, id string, seed uint64) string {
	t.Helper()
	shard, job, err := submitFit(addr, id, seed)
	if err != nil {
		t.Fatalf("fit %s via %s: %v", id, addr, err)
	}
	if err := waitFit(shard, job, 15*time.Second, nil); err != nil {
		t.Fatalf("fit %s on %s: %v", id, shard, err)
	}
	return shard
}

func submitFit(addr, id string, seed uint64) (shard, job string, err error) {
	resp, body, err := postJSON(addr, "/v1/fit", fitSpec(id, seed))
	if err != nil {
		return "", "", err
	}
	if resp.StatusCode != http.StatusAccepted {
		return "", "", fmt.Errorf("fit accepted with %s: %s", resp.Status, body)
	}
	shard = resp.Header.Get(cluster.ShardHeader)
	if shard == "" {
		return "", "", fmt.Errorf("fit response has no %s header", cluster.ShardHeader)
	}
	var acc struct {
		Job string `json:"job"`
	}
	if err := json.Unmarshal(body, &acc); err != nil {
		return "", "", err
	}
	return shard, acc.Job, nil
}

// waitFit polls the job until it finishes, timeout passes, or stop
// closes (a nil stop never does); an interrupted wait is an error.
func waitFit(shard, job string, timeout time.Duration, stop <-chan struct{}) error {
	deadline := time.Now().Add(timeout)
	for {
		var info serve.JobInfo
		err := getJSON(shard, "/v1/jobs/"+job, &info)
		if err == nil {
			switch info.State {
			case serve.JobDone:
				return nil
			case serve.JobFailed:
				return fmt.Errorf("job failed: %s", info.Error)
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("job %s not done before deadline (last err: %v)", job, err)
		}
		select {
		case <-stop:
			return fmt.Errorf("job %s: wait stopped", job)
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// --- Conformance ------------------------------------------------------

// TestClusterConformance pins the forwarding transparency contract:
// for every N×R, a /v1/project answered through any instance — owner,
// replica, or forwarding non-owner — is byte-identical to asking the
// primary owner directly, refusals of a negative entry included.
func TestClusterConformance(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5} {
		for _, r := range []int{1, 2} {
			t.Run(fmt.Sprintf("N%d_R%d", n, r), func(t *testing.T) {
				ins := bootCluster(t, n, r, t.TempDir())
				topo := ins[0].topo
				// Several models so different instances get to own.
				for mi := 0; mi < 3; mi++ {
					id := fmt.Sprintf("conf-%d", mi)
					fitAndWait(t, ins[mi%n].addr, id, uint64(100+mi))
					owner := topo.Owners(id)[0]
					req := projBody(id, int64(7*mi+1))
					resp, want, err := postJSON(owner, "/v1/project", req)
					if err != nil || resp.StatusCode != http.StatusOK {
						t.Fatalf("owner-direct project: %v %s %s", err, resp.Status, want)
					}
					for _, in := range ins {
						resp, got, err := postJSON(in.addr, "/v1/project", req)
						if err != nil || resp.StatusCode != http.StatusOK {
							t.Fatalf("project via %s: %v %s %s", in.addr, err, resp.Status, got)
						}
						if !bytes.Equal(got, want) {
							t.Fatalf("project via %s differs from owner-direct:\n got: %s\nwant: %s", in.addr, got, want)
						}
					}
					// A negative entry, as "column" or in "columns", is
					// refused with the owner-direct 400 whichever instance
					// takes the request.
					neg := slices.Clone(req.Column)
					neg[3] = -1
					for _, bad := range []serve.ProjectRequest{{Model: id, Column: neg}, {Model: id, Columns: [][]float64{req.Column, neg}}} {
						resp, want, err := postJSON(owner, "/v1/project", bad)
						if err != nil || resp.StatusCode != http.StatusBadRequest {
							t.Fatalf("owner-direct project of a negative entry: %v %s %s, want 400", err, resp.Status, want)
						}
						for _, in := range ins {
							resp, got, err := postJSON(in.addr, "/v1/project", bad)
							if err != nil || resp.StatusCode != http.StatusBadRequest || !bytes.Equal(got, want) {
								t.Fatalf("project of a negative entry via %s: %v %s %s, want owner-direct 400 %s", in.addr, err, resp.Status, got, want)
							}
						}
					}
				}
			})
		}
	}
}

// TestClusterFitRefusesBadShape: a /v1/fit whose rows*cols wraps to the
// length of data, or whose rank is above min(rows, cols), gets the
// owner-direct 400 whichever instance takes it.
func TestClusterFitRefusesBadShape(t *testing.T) {
	ins := bootCluster(t, 3, 2, t.TempDir())
	topo := ins[0].topo
	for _, body := range []string{
		`{"model":"wraps","rows":8589934592,"cols":2147483648,"data":[],"k":1}`,
		`{"model":"wide","rows":2,"cols":3,"data":[1,2,3,4,5,6],"k":3}`,
	} {
		owner := topo.Owners(serve.PeekModel([]byte(body)))[0]
		resp, want, err := postJSON(owner, "/v1/fit", json.RawMessage(body))
		if err != nil || resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("owner-direct fit %s: %v %s %s, want 400", body, err, resp.Status, want)
		}
		for _, in := range ins {
			resp, got, err := postJSON(in.addr, "/v1/fit", json.RawMessage(body))
			if err != nil || resp.StatusCode != http.StatusBadRequest || !bytes.Equal(got, want) {
				t.Fatalf("fit %s via %s: %v %s %s, want owner-direct 400 %s", body, in.addr, err, resp.Status, got, want)
			}
		}
	}
}

// spyBody notes, at every Read, whether the router had already stamped
// its shard on the response — which serveLocal does as it hands the
// request to the serving layer. A read before the stamp is the router
// reading the body itself.
type spyBody struct {
	io.Reader
	rw           *httptest.ResponseRecorder
	reads, early int
}

func (b *spyBody) Read(p []byte) (int, error) {
	b.reads++
	if b.rw.Header().Get(cluster.ShardHeader) == "" {
		b.early++
	}
	return b.Reader.Read(p)
}

// TestForwardedRequestIsNotReadByTheRouter: a request that already
// crossed a hop is served locally whatever it names, so the receiving
// router passes its body to the serving layer untouched — and the
// answer is still the owner's, byte for byte. An unforwarded request is
// the control: there the router must read the body to route it.
func TestForwardedRequestIsNotReadByTheRouter(t *testing.T) {
	ins := bootCluster(t, 2, 1, t.TempDir())
	fitAndWait(t, ins[0].addr, "fwd", 11)
	owner := ins[0].topo.Owners("fwd")[0]
	body, err := json.Marshal(projBody("fwd", 5))
	if err != nil {
		t.Fatal(err)
	}
	_, want, err := postJSON(owner, "/v1/project", projBody("fwd", 5))
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range ins {
		for _, forwarded := range []bool{true, false} {
			rw := httptest.NewRecorder()
			spy := &spyBody{Reader: bytes.NewReader(body), rw: rw}
			req := httptest.NewRequest(http.MethodPost, "/v1/project", spy)
			if forwarded {
				req.Header.Set("X-Hpcnmf-Forwarded", "some-peer")
			}
			in.rt.ServeHTTP(rw, req)
			if rw.Code != http.StatusOK || !bytes.Equal(rw.Body.Bytes(), want) {
				t.Fatalf("via %s (forwarded %v): status %d, body differs from the owner's:\n got: %s\nwant: %s",
					in.addr, forwarded, rw.Code, rw.Body, want)
			}
			if forwarded && (spy.early != 0 || spy.reads == 0) {
				t.Errorf("forwarded via %s: %d of %d body reads came before the hand-off, want 0 of some", in.addr, spy.early, spy.reads)
			}
			if !forwarded && spy.early != spy.reads {
				t.Errorf("control via %s: %d of %d body reads were the router's, want all", in.addr, spy.early, spy.reads)
			}
		}
	}
}

// gibibyte supplies a never-ending JSON array, up to 1 GiB, and counts
// what was taken.
type gibibyte struct {
	head  string
	taken int64
}

var ones = strings.Repeat("1,", 1<<15)

func (g *gibibyte) Read(p []byte) (int, error) {
	if g.taken >= 1<<30 {
		return 0, io.EOF
	}
	n := copy(p, g.head[min(g.taken, int64(len(g.head))):])
	for n < len(p) {
		n += copy(p[n:], ones) // a cut "1" runs into the next "1,": still a number
	}
	g.taken += int64(n)
	return n, nil
}

// TestRouterRefusesOverCapBody: the router reads a body whole to route
// it, so the cap is enforced there too — a 1 GiB body is refused with
// 413 after cap + 1 bytes, before any peer or the serving layer sees it.
func TestRouterRefusesOverCapBody(t *testing.T) {
	ins := bootCluster(t, 2, 1, t.TempDir())
	for _, path := range []string{"/v1/project", "/v1/fit"} {
		body := &gibibyte{head: `{"model":"x","rows":1,"cols":1,"k":1,"column":[1],"data":[`}
		req := httptest.NewRequest(http.MethodPost, path, body)
		req.ContentLength = -1
		rw := httptest.NewRecorder()
		ins[0].rt.ServeHTTP(rw, req)
		if rw.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status %d %s, want 413", path, rw.Code, rw.Body)
		}
		if body.taken > serve.MaxBodyBytes+1 {
			t.Errorf("%s: router read %d bytes, want at most cap + 1 = %d", path, body.taken, serve.MaxBodyBytes+1)
		}
	}
}

// --- Chaos ------------------------------------------------------------

// committedSet tracks models whose fit the client observed as done —
// the definition of "committed" the zero-loss guarantee covers.
type committedSet struct {
	mu  sync.Mutex
	ids []string
}

func (c *committedSet) add(id string) {
	c.mu.Lock()
	c.ids = append(c.ids, id)
	c.mu.Unlock()
}

func (c *committedSet) snapshot() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.ids...)
}

// TestClusterKillOneInstance is the ROADMAP deliverable: an N=3/R=2
// cluster under concurrent fit+project load, one instance killed
// mid-traffic with no drain. Every model whose commit was acknowledged
// must survive — servable from the two survivors and present in the
// durable store — and a replacement instance booted on the freed
// address must warm-start the killed shard's models.
func TestClusterKillOneInstance(t *testing.T) {
	const n, replicas = 3, 2
	dir := t.TempDir()
	ins := bootCluster(t, n, replicas, dir)
	addrs := make([]string, n)
	for i, in := range ins {
		addrs[i] = in.addr
	}

	const victim = 1
	var killed atomic.Bool
	alive := func(rng *rand.Rand) string {
		for {
			i := rng.Intn(n)
			if !killed.Load() || i != victim {
				return addrs[i]
			}
		}
	}

	committed := &committedSet{}
	var fitSeq atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Fitters: keep committing fresh models through random live
	// instances. A fit interrupted by the kill (connection error,
	// unreachable shard) is simply not committed — that is the
	// contract under test, not a failure.
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + g)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				seq := fitSeq.Add(1)
				id := fmt.Sprintf("chaos-%d", seq)
				shard, job, err := submitFit(alive(rng), id, uint64(seq))
				if err != nil {
					continue // severed mid-submit: not committed
				}
				if err := waitFit(shard, job, 10*time.Second, stop); err != nil {
					continue // shard died, or the test stopped, first: not committed
				}
				committed.add(id)
			}
		}(g)
	}

	// Projectors: hammer committed models through random live
	// instances. 2xx proves serving continues; 429/503 are valid
	// backpressure; transport errors to the victim are expected
	// during the kill window.
	var projOK atomic.Int64
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(2000 + g)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				ids := committed.snapshot()
				if len(ids) == 0 {
					time.Sleep(time.Millisecond)
					continue
				}
				id := ids[rng.Intn(len(ids))]
				resp, body, err := postJSON(alive(rng), "/v1/project", projBody(id, rng.Int63()))
				if err != nil {
					continue
				}
				switch resp.StatusCode {
				case http.StatusOK:
					projOK.Add(1)
				case http.StatusTooManyRequests, http.StatusServiceUnavailable, http.StatusBadGateway:
					// Backpressure or a hop through the dying instance.
				default:
					t.Errorf("project %s via cluster: %s %s", id, resp.Status, body)
					return
				}
			}
		}(g)
	}

	// Let traffic build, then kill the victim mid-flight.
	waitCommits(t, committed, 5, 20*time.Second)
	preKill := len(committed.snapshot())
	ins[victim].kill()
	killed.Store(true)
	t.Logf("killed %s with %d models committed", addrs[victim], preKill)

	// The fleet must keep committing and serving after the kill.
	waitCommits(t, committed, preKill+5, 20*time.Second)
	close(stop)
	wg.Wait()
	final := committed.snapshot()
	if len(final) < preKill+5 || projOK.Load() == 0 {
		t.Fatalf("no progress after kill: %d commits (%d pre-kill), %d projections", len(final), preKill, projOK.Load())
	}
	t.Logf("%d models committed (%d after kill), %d projections served", len(final), len(final)-preKill, projOK.Load())

	// Zero committed-model loss, part 1: every committed model is in
	// the durable store.
	fsStore, err := store.NewFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range final {
		if _, err := fsStore.Get(id); err != nil {
			t.Errorf("committed model %s missing from durable store: %v", id, err)
		}
	}

	// Part 2: every committed model is servable from both survivors,
	// with byte-identical answers.
	for _, id := range final {
		req := projBody(id, 4242)
		var want []byte
		for i, in := range ins {
			if i == victim {
				continue
			}
			resp, got, err := postJSON(in.addr, "/v1/project", req)
			if err != nil {
				t.Fatalf("survivor %s: project %s: %v", in.addr, id, err)
			}
			// One retry for a model mid-rehydration on this survivor.
			for retry := 0; resp.StatusCode == http.StatusServiceUnavailable && retry < 50; retry++ {
				time.Sleep(10 * time.Millisecond)
				resp, got, err = postJSON(in.addr, "/v1/project", req)
				if err != nil {
					t.Fatalf("survivor %s: project %s: %v", in.addr, id, err)
				}
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("survivor %s cannot serve committed model %s: %s %s", in.addr, id, resp.Status, got)
			}
			if want == nil {
				want = got
			} else if !bytes.Equal(got, want) {
				t.Fatalf("survivors disagree on %s", id)
			}
		}
	}

	// Part 3: a replacement instance on the freed address warm-starts
	// the shard's models from the durable store and rejoins.
	var ln net.Listener
	for i := 0; i < 100; i++ { // the kernel may briefly hold the port
		ln, err = net.Listen("tcp", addrs[victim])
		if err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("rebinding %s: %v", addrs[victim], err)
	}
	reborn := startInstance(t, ln, addrs[victim], addrs, replicas, dir)
	killed.Store(false)

	var h cluster.Health
	if err := getJSON(reborn.addr, "/healthz", &h); err != nil {
		t.Fatalf("replacement healthz: %v", err)
	}
	ownedCommitted := 0
	for _, id := range final {
		if reborn.rt.Owns(id) {
			ownedCommitted++
			if !holds(reborn.srv, id) {
				t.Errorf("replacement did not warm-start owned model %s", id)
			}
		}
	}
	if ownedCommitted == 0 {
		t.Fatal("replacement owns none of the committed models — harness too small to prove warm-start")
	}
	if h.Resident < ownedCommitted {
		t.Fatalf("replacement resident=%d < owned committed=%d", h.Resident, ownedCommitted)
	}
	t.Logf("replacement warm-started %d resident models (%d owned committed)", h.Resident, ownedCommitted)

	// And it serves immediately.
	for _, id := range final {
		resp, body, err := postJSON(reborn.addr, "/v1/project", projBody(id, 99))
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("replacement cannot serve %s: %v %s %s", id, err, resp.Status, body)
		}
	}
}

// holds reports whether srv has model id in memory.
func holds(srv *serve.Server, id string) bool {
	return slices.ContainsFunc(srv.Models(), func(mi serve.ModelInfo) bool { return mi.ID == id })
}

// waitCommits blocks until the committed set reaches want entries.
func waitCommits(t *testing.T, c *committedSet, want int, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for len(c.snapshot()) < want {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d commits before deadline", len(c.snapshot()), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestClusterReplicaFanOut: a commit lands resident on every replica,
// not just the shard that ran the fit, so replica reads need no
// store round-trip.
func TestClusterReplicaFanOut(t *testing.T) {
	ins := bootCluster(t, 3, 2, t.TempDir())
	topo := ins[0].topo
	id := "fanout-model"
	fitAndWait(t, ins[0].addr, id, 7)
	owners := topo.Owners(id)
	if len(owners) != 2 {
		t.Fatalf("owners = %v, want 2", owners)
	}
	byAddr := map[string]*instance{}
	for _, in := range ins {
		byAddr[in.addr] = in
	}
	// Fan-out is synchronous within commit acknowledgment... it runs
	// after the job flips to done, so poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	for {
		allResident := true
		for _, o := range owners {
			if !holds(byAddr[o].srv, id) {
				allResident = false
			}
		}
		if allResident {
			break
		}
		if time.Now().After(deadline) {
			for _, o := range owners {
				t.Logf("owner %s resident=%v", o, holds(byAddr[o].srv, id))
			}
			t.Fatal("commit did not fan out to every replica")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The non-owner holds nothing resident.
	for _, in := range ins {
		isOwner := in.rt.Owns(id)
		if !isOwner && holds(in.srv, id) {
			t.Fatalf("non-owner %s holds %s resident", in.addr, id)
		}
	}
}

// TestClusterDeleteFansOut: deleting a model removes it everywhere —
// resident copies on replicas and the durable entry.
func TestClusterDeleteFansOut(t *testing.T) {
	dir := t.TempDir()
	ins := bootCluster(t, 3, 2, dir)
	id := "delete-me"
	fitAndWait(t, ins[0].addr, id, 9)
	req, _ := http.NewRequest(http.MethodDelete, "http://"+ins[0].addr+"/v1/models/"+id, nil)
	resp, err := testClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE = %s, want 204", resp.Status)
	}
	fsStore, err := store.NewFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fsStore.Get(id); err != store.ErrNotFound {
		t.Fatalf("durable entry after DELETE: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		resident := 0
		for _, in := range ins {
			if holds(in.srv, id) {
				resident++
			}
		}
		if resident == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d resident copies survive DELETE", resident)
		}
		time.Sleep(5 * time.Millisecond)
	}
	resp2, body, err := postJSON(ins[2].addr, "/v1/project", projBody(id, 1))
	if err != nil {
		t.Fatal(err)
	}
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("project after cluster delete = %s %s, want 404", resp2.Status, body)
	}
}

// TestClusterHealthz: ownership and peer health are surfaced.
func TestClusterHealthz(t *testing.T) {
	ins := bootCluster(t, 3, 2, t.TempDir())
	fitAndWait(t, ins[0].addr, "health-model", 3)
	var h cluster.Health
	if err := getJSON(ins[0].addr, "/healthz?probe=1", &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Replicas != 2 || len(h.Peers) != 3 {
		t.Fatalf("healthz = %+v", h)
	}
	if len(h.PeerHealth) != 2 {
		t.Fatalf("peer_health has %d entries, want 2", len(h.PeerHealth))
	}
	for _, p := range h.PeerHealth {
		if !p.Reachable {
			t.Fatalf("peer %s unreachable: %s", p.Peer, p.Error)
		}
	}
	// Kill one and the probe must degrade.
	ins[2].kill()
	if err := getJSON(ins[0].addr, "/healthz?probe=1", &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "degraded" {
		t.Fatalf("status after kill = %q, want degraded", h.Status)
	}
}
