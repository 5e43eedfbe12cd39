package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"hpcnmf/internal/metrics"
	"hpcnmf/internal/trace"
)

// syncBuffer is a goroutine-safe bytes.Buffer: run writes to it from
// the server goroutine while the test polls it for the listen line.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestServeFlagValidation(t *testing.T) {
	var out, errb bytes.Buffer
	cases := [][]string{
		{"-solver", "bogus"},
		{"stray-arg"},
		{"-not-a-flag"},
		{"-addr", "999.999.999.999:1"}, // unlistenable address
		// Cluster flags must be mutually consistent.
		{"-peers", "a:1,b:1"},                                     // -peers without -self
		{"-peers", "a:1,b:1", "-self", "a:1"},                     // -peers without -store
		{"-peers", "a:1,b:1", "-self", "c:1", "-store", "/tmp/x"}, // self not in peers
		{"-peers", "a:1,a:1", "-self", "a:1", "-store", "/tmp/x"}, // duplicate peer
		{"-peers", "a:1,b:1", "-self", "a:1", "-store", "/tmp/x", "-replicas", "0"},
		{"-self", "a:1"}, // -self without -peers
	}
	for _, args := range cases {
		if err := run(args, &out, &errb); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
	// Lawson–Hanson is a test oracle, not a solver (DESIGN decision 26).
	if err := run([]string{"-solver", "activeset"}, &out, &errb); err == nil || !strings.Contains(err.Error(), "bpp, hals, mu, pgd") {
		t.Errorf("-solver activeset: err = %v, want a refusal listing bpp, hals, mu, pgd", err)
	}
}

// TestServeClusterEndToEnd boots a two-shard cluster over one shared
// store directory via the real command seam, fits a model through
// shard A, and reads it back byte-consistently through shard B —
// proving the flags wire the store, topology, and router together.
func TestServeClusterEndToEnd(t *testing.T) {
	dir := t.TempDir()
	// Reserve two ports so the peer list can name concrete addresses.
	addrs := make([]string, 2)
	lns := make([]net.Listener, 2)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		lns[i] = ln
	}
	peers := strings.Join(addrs, ",")

	outs := make([]*syncBuffer, 2)
	done := make(chan error, 2)
	for i := range addrs {
		outs[i] = &syncBuffer{}
		lns[i].Close() // free the port for run's own listener
		go func(i int) {
			done <- run([]string{
				"-addr", addrs[i], "-self", addrs[i],
				"-peers", peers, "-replicas", "2",
				"-store", filepath.Join(dir, "models"),
				"-fit-workers", "1",
			}, outs[i], outs[i])
		}(i)
	}
	for i := range addrs {
		deadline := time.Now().Add(10 * time.Second)
		for !strings.Contains(outs[i].String(), "listening on") {
			select {
			case err := <-done:
				t.Fatalf("shard %d exited early: %v\noutput: %s", i, err, outs[i].String())
			default:
			}
			if time.Now().After(deadline) {
				t.Fatalf("shard %d never listened; output: %q", i, outs[i].String())
			}
			time.Sleep(5 * time.Millisecond)
		}
		if !strings.Contains(outs[i].String(), "cluster shard") {
			t.Fatalf("shard %d did not announce cluster mode: %q", i, outs[i].String())
		}
	}

	// Fit through shard 0; the accepted response names the shard that
	// ran it (job ids are shard-local).
	data := make([]float64, 6*5)
	for i := range data {
		data[i] = 0.3 + float64(i%5)/5
	}
	body, _ := json.Marshal(map[string]any{"model": "cm", "rows": 6, "cols": 5, "data": data, "k": 2, "max_iter": 20})
	resp, err := http.Post("http://"+addrs[0]+"/v1/fit", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("fit: %v", err)
	}
	shard := resp.Header.Get("X-Shard")
	var accepted struct {
		StatusURL string `json:"status_url"`
	}
	json.NewDecoder(resp.Body).Decode(&accepted)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || shard == "" {
		t.Fatalf("fit: status %d, shard %q", resp.StatusCode, shard)
	}
	deadline := time.Now().Add(15 * time.Second)
	for state := ""; state != "done"; {
		if time.Now().After(deadline) {
			t.Fatalf("fit stuck in %q", state)
		}
		r, err := http.Get("http://" + shard + accepted.StatusURL)
		if err != nil {
			t.Fatalf("poll: %v", err)
		}
		var job struct{ State, Error string }
		json.NewDecoder(r.Body).Decode(&job)
		r.Body.Close()
		if job.State == "failed" {
			t.Fatalf("fit failed: %s", job.Error)
		}
		state = job.State
		time.Sleep(5 * time.Millisecond)
	}

	// Project through both shards: answers must be byte-identical.
	col := make([]float64, 6)
	for i := range col {
		col[i] = data[i*5]
	}
	body, _ = json.Marshal(map[string]any{"model": "cm", "column": col})
	var answers [][]byte
	for _, a := range addrs {
		r, err := http.Post("http://"+a+"/v1/project", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("project via %s: %v", a, err)
		}
		var pb bytes.Buffer
		pb.ReadFrom(r.Body)
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("project via %s: status %d, body %s", a, r.StatusCode, pb.String())
		}
		answers = append(answers, pb.Bytes())
	}
	if !bytes.Equal(answers[0], answers[1]) {
		t.Fatalf("shards disagree:\n%s\n%s", answers[0], answers[1])
	}

	// /healthz reports the topology from either shard.
	r, err := http.Get("http://" + addrs[1] + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	var h struct {
		Status   string   `json:"status"`
		Peers    []string `json:"peers"`
		Replicas int      `json:"replicas"`
	}
	json.NewDecoder(r.Body).Decode(&h)
	r.Body.Close()
	if h.Status != "ok" || len(h.Peers) != 2 || h.Replicas != 2 {
		t.Fatalf("healthz = %+v", h)
	}

	// The durable store holds the committed model on disk.
	entries, err := os.ReadDir(filepath.Join(dir, "models"))
	if err != nil || len(entries) == 0 {
		t.Fatalf("store dir empty after commit: %v, %d entries", err, len(entries))
	}

	// Both shards drain cleanly on SIGINT.
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("shard exited with %v", err)
			}
		case <-time.After(20 * time.Second):
			t.Fatal("shards did not shut down after SIGINT")
		}
	}
}

// TestServeEndToEnd boots the server on an ephemeral port, fits a
// model over HTTP, projects against it, checks /metrics moved, and
// shuts down via SIGINT — the full serve lifecycle.
func TestServeEndToEnd(t *testing.T) {
	var out syncBuffer
	var errb syncBuffer
	tracePath := filepath.Join(t.TempDir(), "serve.trace.json")
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-addr", "127.0.0.1:0", "-fit-workers", "1",
			"-pprof", "-log", "info,serve=debug", "-trace", tracePath,
		}, &out, &errb)
	}()

	// Parse the advertised address from the listen line.
	var base string
	deadline := time.Now().Add(10 * time.Second)
	for base == "" {
		if time.Now().After(deadline) {
			t.Fatalf("server never printed its listen line; output: %q", out.String())
		}
		for _, line := range strings.Split(out.String(), "\n") {
			if addr, ok := strings.CutPrefix(line, "listening on "); ok {
				base = "http://" + strings.TrimSpace(addr)
			}
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Fit a tiny rank-2 model.
	data := make([]float64, 6*5)
	for i := range data {
		data[i] = 0.2 + float64(i%7)/7
	}
	fit := map[string]any{"model": "demo", "rows": 6, "cols": 5, "data": data, "k": 2, "max_iter": 30}
	body, _ := json.Marshal(fit)
	resp, err := http.Post(base+"/v1/fit", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("fit: %v", err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("fit: status %d", resp.StatusCode)
	}
	var accepted struct {
		StatusURL string `json:"status_url"`
	}
	json.NewDecoder(resp.Body).Decode(&accepted)
	resp.Body.Close()

	// Poll until the fit lands.
	state := ""
	for state != "done" {
		if time.Now().After(deadline) {
			t.Fatalf("fit job stuck in state %q", state)
		}
		r, err := http.Get(base + accepted.StatusURL)
		if err != nil {
			t.Fatalf("poll: %v", err)
		}
		var job struct {
			State string `json:"state"`
			Error string `json:"error"`
		}
		json.NewDecoder(r.Body).Decode(&job)
		r.Body.Close()
		if job.State == "failed" {
			t.Fatalf("fit failed: %s", job.Error)
		}
		state = job.State
		time.Sleep(5 * time.Millisecond)
	}

	// Project a column of the training data.
	col := make([]float64, 6)
	for i := range col {
		col[i] = data[i*5]
	}
	body, _ = json.Marshal(map[string]any{"model": "demo", "column": col})
	resp, err = http.Post(base+"/v1/project", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("project: %v", err)
	}
	var proj struct {
		H         [][]float64 `json:"h"`
		Residuals []float64   `json:"residuals"`
	}
	json.NewDecoder(resp.Body).Decode(&proj)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(proj.H) != 1 || len(proj.H[0]) != 2 {
		t.Fatalf("project: status %d, body %+v", resp.StatusCode, proj)
	}

	// Metrics counters must have moved; the default exposition is
	// Prometheus text, so names arrive sanitized with counter suffixes.
	r, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	var mbuf bytes.Buffer
	mbuf.ReadFrom(r.Body)
	r.Body.Close()
	for _, want := range []string{"serve_project_requests_total", "serve_fit_completed_total"} {
		if !strings.Contains(mbuf.String(), want) {
			t.Errorf("metrics missing %q:\n%s", want, mbuf.String())
		}
	}
	if err := metrics.LintPrometheus(strings.NewReader(mbuf.String())); err != nil {
		t.Errorf("/metrics failed Prometheus lint: %v", err)
	}

	// -pprof exposed the profiling index.
	r, err = http.Get(base + "/debug/pprof/")
	if err != nil {
		t.Fatalf("pprof index: %v", err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Errorf("/debug/pprof/ status %d, want 200", r.StatusCode)
	}

	// Graceful shutdown on SIGINT.
	if err := syscall.Kill(syscall.Getpid(), syscall.SIGINT); err != nil {
		t.Fatalf("signalling self: %v", err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v\nstderr: %s", err, errb.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatal("server did not shut down after SIGINT")
	}
	if got := out.String(); !strings.Contains(got, "drained, shutting down") {
		t.Errorf("shutdown did not report draining:\n%s", got)
	}

	// -trace wrote a parseable Chrome trace with the request span chain.
	traceFile, err := os.Open(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	defer traceFile.Close()
	tr, err := trace.ParseChrome(traceFile)
	if err != nil {
		t.Fatalf("parsing trace export: %v", err)
	}
	found := false
	for _, ev := range tr.Events {
		if ev.Cat == trace.CatRequest && ev.Name == "http.project" {
			found = true
		}
	}
	if !found {
		t.Errorf("trace export has no http.project request span (%d events)", len(tr.Events))
	}

	// -log "serve=debug" routed component-tagged debug lines to stderr.
	if got := errb.String(); !strings.Contains(got, "component=serve") {
		t.Errorf("stderr has no serve-component log lines:\n%s", got)
	}
}

// TestSlowHeadersCutOff: a client that sends its headers one byte at a
// time, and so never finishes them, is disconnected once
// readHeaderTimeout has passed, long before readTimeout would.
func TestSlowHeadersCutOff(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := httpServer(http.NotFoundHandler())
	go hs.Serve(ln)
	defer hs.Close()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	start := time.Now()
	closed := make(chan struct{})
	go func() {
		io.Copy(io.Discard, conn) // returns when the server hangs up
		close(closed)
	}()
	// A request line, then a header line that outlasts the test.
	head := "GET /healthz HTTP/1.1\r\nHost: localhost\r\nX-Slow: " + strings.Repeat("x", 1<<10)
	for i := 0; ; i++ {
		select {
		case <-closed:
			if took := time.Since(start); took < readHeaderTimeout-time.Second || took > readHeaderTimeout+3*time.Second {
				t.Fatalf("cut off after %v, want just past readHeaderTimeout = %v", took, readHeaderTimeout)
			}
			return
		case <-time.After(50 * time.Millisecond):
		}
		if time.Since(start) > readHeaderTimeout+3*time.Second {
			t.Fatalf("still connected after %v of trickled headers (readHeaderTimeout %v)", time.Since(start), readHeaderTimeout)
		}
		conn.Write([]byte{head[i]})
	}
}
