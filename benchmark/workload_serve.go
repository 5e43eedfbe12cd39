package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"hpcnmf"
	"hpcnmf/internal/datasets"
	"hpcnmf/internal/mat"
	"hpcnmf/internal/rng"
	"hpcnmf/internal/serve"
	"hpcnmf/internal/store"
)

// serveSize is the serve_fleet workload's shape: the background model
// every projection uses, and the small model the write traffic refits.
type serveSize struct {
	video              datasets.VideoSpec
	k, iters           int // background model
	smallM, smallN     int // refit matrix
	smallK, smallIters int
}

var (
	// The default synthetic video: 5184-row frames, so one projection
	// carries about 100 KB of JSON and decode is a real cost.
	fullServe  = serveSize{video: datasets.DefaultVideo(), k: 50, iters: 5, smallM: 240, smallN: 120, smallK: 8, smallIters: 10}
	smokeServe = serveSize{video: datasets.VideoSpec{Width: 8, Height: 6, Frames: 24, Blobs: 2, Noise: 0.02}, k: 4, iters: 3,
		smallM: 24, smallN: 12, smallK: 2, smallIters: 3}
)

// Traffic. The closed loop has one client per CPU. The open loop's
// fixed rates are about a quarter, a half and three quarters of what
// the closed loop completes on the 2-vCPU host; the middle rate is the
// gated one, where the tail is stable. The write mix refits one of
// eight small models on a Poisson schedule throughout.
const (
	closedClients = 2
	rateLow       = 60.0
	rateMid       = 120.0
	rateHigh      = 180.0
	fitRate       = 5.0
	fitIDs        = 8
	openWorkers   = 16 // connections the open loop may hold; it must not wait for a free one
	latencyLimit  = 25 * time.Millisecond
	rateWindows   = 6 // a closed loop's rate is that of the best of this many windows
	// latencyWindows is how many windows the open loop and the refit
	// stream are cut into; their latency is the best window's median.
	latencyWindows = 7
)

type serveFleet struct {
	sz       serveSize
	fl       *fleet
	bodies   [][]byte // one single-column projection body per video frame
	fitBody  [][]byte // one small-fit body per rotating id
	small    *mat.Dense
	smallOpt hpcnmf.Options
	bgRelErr float64
	genS     float64
	fitted   sync.Map // small-model ids committed during the run
}

func newServeFleet() workload { return &serveFleet{} }

func (w *serveFleet) setup(e *env) error {
	w.sz = fullServe
	if e.cfg.smoke {
		w.sz = smokeServe
	}
	sz := w.sz
	sp := e.rec.begin("setup/datasets.gen", e.cur, 0)
	t := time.Now()
	video := datasets.Video(sz.video, e.cfg.seed)
	w.small = datasets.DSYN(sz.smallM, sz.smallN, e.cfg.seed+1)
	w.genS = time.Since(t).Seconds()
	sp.end()

	sp = e.rec.begin("setup/encode-bodies", e.cur, 0)
	w.bodies = make([][]byte, video.Cols)
	for j := range w.bodies {
		col := make([]float64, video.Rows)
		for i := range col {
			col[i] = video.At(i, j)
		}
		b, err := json.Marshal(serve.ProjectRequest{Model: "bg", Column: col})
		if err != nil {
			return err
		}
		w.bodies[j] = b
	}
	w.fitBody = make([][]byte, fitIDs)
	for i := range w.fitBody {
		b, err := json.Marshal(serve.FitRequest{
			Model: fmt.Sprintf("w%d", i), Rows: sz.smallM, Cols: sz.smallN, Data: w.small.Data,
			K: sz.smallK, MaxIter: sz.smallIters, Seed: fitSeed,
		})
		if err != nil {
			return err
		}
		w.fitBody[i] = b
	}
	// What /v1/fit runs for that body, as a facade call.
	w.smallOpt = hpcnmf.Options{K: sz.smallK, MaxIter: sz.smallIters, Solver: hpcnmf.SolverBPP, ComputeError: true, Seed: fitSeed}
	bgBody, err := json.Marshal(serve.FitRequest{
		Model: "bg", Rows: video.Rows, Cols: video.Cols, Data: video.Data,
		K: sz.k, MaxIter: sz.iters, Solver: "hals", Seed: fitSeed,
	})
	sp.end()
	if err != nil {
		return err
	}

	sp = e.rec.begin("setup/fleet.boot", e.cur, 0)
	w.fl, err = bootFleet(filepath.Join(e.tmp, "store"), false)
	sp.end()
	if err != nil {
		return err
	}
	sp = e.rec.begin("setup/model.fit", e.cur, 0)
	info, err := w.fl.fit(w.fl.ins[0].addr, bgBody)
	sp.end()
	if err != nil {
		return err
	}
	w.bgRelErr = info.RelErr

	// Warm-up: connections opened, the model resident on both owners,
	// every code path taken once.
	sp = e.rec.begin("setup/warm-up", e.cur, 0)
	defer sp.end()
	for i := 0; i < 4*fleetSize; i++ {
		w.fl.project(e, w.fl.ins[i%fleetSize].addr, w.bodies[i%len(w.bodies)], sz.k)
	}
	_, err = w.fl.fit(w.fl.ins[1].addr, w.fitBody[0])
	return err
}

func (w *serveFleet) teardown() {
	if w.fl != nil {
		w.fl.close()
		w.fl = nil
	}
}

// closedLoop runs closedClients clients, each sending its next
// projection only when the previous one is answered, entering the
// fleet round-robin, for d. It returns the projections and the
// completion rate of the best of rateWindows windows.
func (w *serveFleet) closedLoop(e *env, fl *fleet, d time.Duration, spans bool) (out []projection, rate float64) {
	parent := e.rec.begin("project/closed", e.cur, 0)
	defer parent.end()
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < closedClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var mine []projection
			for i := c; time.Now().Before(deadline); i += closedClients {
				entry := fl.ins[i%fleetSize].addr
				var sp *span
				if spans {
					sp = e.rec.beginLane("http.project", parent, i, 1+c)
				}
				t := time.Now()
				shard, status, _ := fl.project(e, entry, w.bodies[i%len(w.bodies)], w.sz.k)
				mine = append(mine, projection{latency: time.Since(t), at: time.Since(start), forwarded: shard != entry, status: status})
				sp.end()
			}
			mu.Lock()
			out = append(out, mine...)
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	done := make([]float64, len(out))
	for i, p := range out {
		done[i] = p.at.Seconds()
	}
	return out, bestRate(done, d.Seconds(), rateWindows)
}

// openLoop sends projections on a seeded Poisson schedule at rate per
// second for d, whatever the fleet's state, and times each from the
// moment it was due. It also returns how many were still unanswered
// when the schedule ended (a backlog that grows shows here).
func (w *serveFleet) openLoop(e *env, rate float64, d time.Duration, seed uint64) (out []projection, backlog int) {
	parent := e.rec.begin(fmt.Sprintf("project/open@%g", rate), e.cur, 0)
	defer parent.end()
	type arrival struct {
		i   int
		due time.Time
	}
	// Sized for the whole schedule, so the dispatcher never blocks.
	queue := make(chan arrival, int(rate*d.Seconds()*2)+64)
	start := time.Now()
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < openWorkers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for a := range queue {
				entry := w.fl.ins[a.i%fleetSize].addr
				sent := time.Now()
				shard, status, _ := w.fl.project(e, entry, w.bodies[a.i%len(w.bodies)], w.sz.k)
				p := projection{latency: time.Since(a.due), at: a.due.Sub(start), lag: sent.Sub(a.due), forwarded: shard != entry, status: status}
				mu.Lock()
				out = append(out, p)
				mu.Unlock()
			}
		}()
	}
	stream := rng.New(seed)
	due := start
	sent := 0
	for {
		due = due.Add(time.Duration(-math.Log(1-stream.Float64()) / rate * float64(time.Second)))
		if due.Sub(start) >= d {
			break
		}
		time.Sleep(time.Until(due))
		queue <- arrival{i: sent, due: due}
		sent++
	}
	mu.Lock()
	backlog = sent - len(out)
	mu.Unlock()
	close(queue)
	wg.Wait()
	return out, backlog
}

// fitStream refits the rotating small models on a seeded Poisson
// schedule until stop is closed, each fit on its own goroutine, and
// returns the seconds from POST to job done of every fit.
func (w *serveFleet) fitStream(e *env, seed uint64, stop <-chan struct{}) []float64 {
	parent := e.rec.beginLane("fit/stream", e.cur, 0, 20)
	defer parent.end()
	var mu sync.Mutex
	var wg sync.WaitGroup
	var secs []float64
	stream := rng.New(seed)
	due := time.Now()
	for i := 0; ; i++ {
		due = due.Add(time.Duration(-math.Log(1-stream.Float64()) / fitRate * float64(time.Second)))
		select {
		case <-stop:
			wg.Wait()
			return secs
		case <-time.After(time.Until(due)):
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sp := e.rec.beginLane("http.fit", parent, i, 21+i%4)
			defer sp.end()
			t := time.Now()
			_, err := w.fl.fit(w.fl.ins[i%fleetSize].addr, w.fitBody[i%fitIDs])
			dt := time.Since(t).Seconds()
			e.attempt(1)
			if err != nil {
				e.fail("fit w%d: %v", i%fitIDs, err)
				return
			}
			w.fitted.Store(fmt.Sprintf("w%d", i%fitIDs), true)
			mu.Lock()
			secs = append(secs, dt)
			mu.Unlock()
		}(i)
	}
}

func latencies(ps []projection) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = p.latency.Seconds()
	}
	return sortedCopy(out)
}

// measure is the untraced timed section: the small refit as plain
// facade calls, then a closed loop for 30% of the budget and an open
// loop at the middle rate for the rest, with small refits throughout.
func (w *serveFleet) measure(e *env, budget time.Duration) error {
	// The refit as plain facade calls, in three bursts spread over the
	// section (before, between and after the load phases, the fleet
	// idle each time) so that they sample the host's speed as widely as
	// the phases do.
	var seq, kt []float64
	inProcess := func() {
		s, k := w.inProcessFits(e, 40)
		seq, kt = append(seq, s...), append(kt, k...)
	}
	inProcess()
	stop := make(chan struct{})
	fits := make(chan []float64, 1)
	go func() { fits <- w.fitStream(e, e.cfg.seed+2, stop) }()
	closed, rate := w.closedLoop(e, w.fl, budget*30/100, false)
	close(stop)
	fitSecs := <-fits
	inProcess()
	stop, fits = make(chan struct{}), make(chan []float64, 1)
	go func() { fits <- w.fitStream(e, e.cfg.seed+4, stop) }()
	open, _ := w.openLoop(e, rateMid, budget*70/100, e.cfg.seed+3)
	close(stop)
	fitSecs = append(fitSecs, <-fits...)
	inProcess()
	if len(closed) == 0 || len(open) == 0 || len(fitSecs) == 0 {
		return fmt.Errorf("a phase completed nothing: closed=%d open=%d fits=%d", len(closed), len(open), len(fitSecs))
	}
	e.set("project_rps", rate)
	// Latencies under load: the median of the best of several windows.
	sort.Slice(open, func(i, j int) bool { return open[i].at < open[j].at })
	byDue := make([]float64, len(open))
	for i, p := range open {
		byDue[i] = 1e3 * p.latency.Seconds()
	}
	e.best("project_p50_ms", windowMedians(byDue, latencyWindows), false)
	e.best("fit_s", windowMedians(fitSecs, latencyWindows), false)
	e.best("fit_seq_s", seq, false)
	e.best("fit_kt_s", kt, false)
	w.checkOutputs(e)
	return nil
}

// inProcessFits times the small refit as facade calls, with one and
// with two kernel threads: what the fit costs without the serving
// layers around it.
func (w *serveFleet) inProcessFits(e *env, n int) (seq, kt []float64) {
	a := hpcnmf.WrapDense(w.small)
	for i := 0; i < n; i++ {
		for _, arm := range []struct {
			threads int
			out     *[]float64
		}{{1, &seq}, {2, &kt}} {
			t := time.Now()
			res, err := hpcnmf.Run(a, withThreads(w.smallOpt, arm.threads))
			*arm.out = append(*arm.out, time.Since(t).Seconds())
			e.check(err == nil && res.W.IsFinite() && res.W.Min() >= 0, "in-process small fit: %v", err)
		}
	}
	return seq, kt
}

// checkOutputs runs the end-of-run output checks: forwarded answers
// are byte-identical to owner-direct ones, and every model committed
// during the run is readable from the shared store.
func (w *serveFleet) checkOutputs(e *env) {
	for i := 0; i < 8; i++ {
		body := w.bodies[(i*7)%len(w.bodies)]
		owner, _, direct := w.fl.project(e, w.fl.ins[0].addr, body, w.sz.k)
		_, _, again := w.fl.project(e, owner, body, w.sz.k)
		for _, in := range w.fl.ins {
			_, _, via := w.fl.project(e, in.addr, body, w.sz.k)
			e.check(bytes.Equal(via, again) && bytes.Equal(direct, again),
				"answer via %s differs from owner %s's", in.addr, owner)
		}
	}
	fs, err := store.NewFS(w.fl.dir)
	if err != nil {
		e.check(false, "reopening the store: %v", err)
		return
	}
	ids := []string{"bg"}
	w.fitted.Range(func(k, _ any) bool { ids = append(ids, k.(string)); return true })
	for _, id := range ids {
		m, err := fs.Get(id)
		e.check(err == nil && m != nil && m.W.IsFinite(), "model %s unreadable from the store: %v", id, err)
	}
}

// layers is the traced run: the same traffic with per-request spans,
// all three open-loop rates, and replays of the serve, cluster and
// store layers' own work on this workload's bodies and model.
func (w *serveFleet) layers(e *env, budget time.Duration) error {
	e.set("datasets.gen_s", w.genS)
	if err := w.trafficLayers(e, budget); err != nil {
		return err
	}
	fs, err := store.NewFS(w.fl.dir)
	if err != nil {
		return err
	}
	model, err := fs.Get("bg")
	if err != nil {
		return err
	}
	perCall := replayBudget(budget)
	for _, step := range []func() error{
		func() error { return w.requestLayers(e, model, perCall) },
		func() error { return w.storeLayers(e, model, perCall) },
		func() error { return w.coreLayers(e, model, perCall) },
		func() error { return w.tracingOverhead(e, model, budget) },
	} {
		if err := step(); err != nil {
			return err
		}
	}
	w.checkOutputs(e)
	return nil
}

// trafficLayers runs the load phases of the traced run: a bare and a
// spanned closed loop, then the open loop at the three rates, with the
// refit stream throughout.
func (w *serveFleet) trafficLayers(e *env, budget time.Duration) error {
	stop := make(chan struct{})
	fits := make(chan []float64, 1)
	go func() { fits <- w.fitStream(e, e.cfg.seed+2, stop) }()

	_, bareRPS := w.closedLoop(e, w.fl, budget*8/100, false)
	closed, spanRPS := w.closedLoop(e, w.fl, budget*12/100, true)
	e.set("bench.span_overhead_frac", (bareRPS-spanRPS)/bareRPS)
	var local, fwd []float64
	for _, p := range closed {
		if p.forwarded {
			fwd = append(fwd, p.latency.Seconds())
		} else {
			local = append(local, p.latency.Seconds())
		}
	}
	if len(local) == 0 || len(fwd) == 0 {
		return fmt.Errorf("closed loop saw %d local and %d forwarded answers", len(local), len(fwd))
	}
	e.set("cluster.hop_ms", 1e3*(median(fwd)-median(local)))
	e.set("cluster.forward_share", float64(len(fwd))/float64(len(closed)))

	maxOK := 0.0
	for i, rate := range []float64{rateLow, rateMid, rateHigh} {
		ps, backlog := w.openLoop(e, rate, budget*20/100, e.cfg.seed+3+uint64(i))
		if len(ps) == 0 {
			return fmt.Errorf("open loop at %g/s completed nothing", rate)
		}
		lat := latencies(ps)
		p95 := percentile(lat, 0.95)
		ok := p95 <= latencyLimit.Seconds() && backlog <= len(ps)/50
		for _, p := range ps {
			ok = ok && p.status == http.StatusOK
		}
		if ok {
			maxOK = rate
		}
		switch rate {
		case rateLow:
			e.set("serve.p95_ms_at_60", 1e3*p95)
		case rateHigh:
			e.set("serve.p95_ms_at_180", 1e3*p95)
		default:
			e.set("project_p95_ms", 1e3*p95)
			e.set("serve.p99_ms", 1e3*percentile(lat, 0.99))
			lags := make([]float64, len(ps))
			for i, p := range ps {
				lags[i] = p.lag.Seconds()
			}
			e.set("serve.gen_lag_ms_p99", 1e3*percentile(sortedCopy(lags), 0.99))
		}
	}
	e.set("serve.max_rps_ok", maxOK)
	close(stop)
	<-fits

	// Reported by the program: each instance's own registry.
	var batchSum float64
	var batchN, rejected int64
	for _, in := range w.fl.ins {
		snap := in.srv.Metrics().Snapshot()
		h := snap.Histograms["serve.project.batch_columns"]
		batchSum += h.Sum
		batchN += h.Count
		rejected += snap.Counters["serve.project.rejected"]
	}
	e.set("serve.batch_size_mean", batchSum/float64(max(batchN, 1)))
	e.set("serve.rejected_429", float64(rejected))
	return nil
}

// requestLayers replays, on an idle fleet, what one projection costs
// in each layer from the inside out.
func (w *serveFleet) requestLayers(e *env, model *store.Model, perCall time.Duration) error {
	k := w.sz.k
	body := w.bodies[0]
	var req serve.ProjectRequest
	decode := e.replay("serve.decode", perCall, func() {
		req = serve.ProjectRequest{}
		e.check(json.Unmarshal(body, &req) == nil, "decoding a projection body")
	})
	proj, err := hpcnmf.NewProjector(model.W, hpcnmf.SolverBPP, 0)
	if err != nil {
		return err
	}
	col := &mat.Dense{Rows: len(req.Column), Cols: 1, Data: req.Column}
	h1, resid := mat.NewDense(k, 1), make([]float64, 1)
	solve := e.replay("serve.solve", perCall, func() {
		_, err := proj.ProjectInto(h1, col, resid)
		e.check(err == nil, "replayed projection: %v", err)
	})
	answer := serve.ProjectResponse{Model: "bg", H: [][]float64{h1.Data}, Residuals: resid}
	encode := e.replay("serve.encode", perCall, func() {
		_, err := json.Marshal(answer)
		e.check(err == nil, "encoding an answer: %v", err)
	})
	owner, _, _ := w.fl.project(e, w.fl.ins[0].addr, body, k)
	var ownerSrv *serve.Server
	for _, in := range w.fl.ins {
		if in.addr == owner {
			ownerSrv = in.srv
		}
	}
	if ownerSrv == nil {
		return fmt.Errorf("no instance answers as %q", owner)
	}
	handler := e.replay("serve.handler", 2*perCall, func() {
		rw := httptest.NewRecorder()
		ownerSrv.ServeHTTP(rw, httptest.NewRequest(http.MethodPost, "/v1/project", bytes.NewReader(body)))
		e.check(rw.Code == http.StatusOK, "handler answered %d", rw.Code)
	})
	direct := e.replay("serve.owner-direct", 2*perCall, func() { w.fl.project(e, owner, body, k) })
	e.set("serve.decode_ms", 1e3*decode)
	e.set("serve.solve_ms", 1e3*solve)
	e.set("serve.encode_ms", 1e3*encode)
	e.set("serve.handler_ms", 1e3*handler)
	e.set("serve.batch_wait_ms", 1e3*(handler-decode-solve-encode))
	e.set("serve.http_overhead_ms", 1e3*(direct-handler))
	return nil
}

// storeLayers replays the background model through the codec and the
// durable commit path, into a scratch store of its own.
func (w *serveFleet) storeLayers(e *env, model *store.Model, perCall time.Duration) error {
	scratch, err := store.NewFS(filepath.Join(e.tmp, "store-replay"))
	if err != nil {
		return err
	}
	var blob []byte
	enc := e.replay("store.encode", perCall, func() {
		blob, err = store.EncodeModel(model)
		e.check(err == nil, "encoding the model: %v", err)
	})
	dec := e.replay("store.decode", perCall, func() {
		_, err := store.DecodeModel(blob)
		e.check(err == nil, "decoding the model: %v", err)
	})
	put := e.replay("store.put", perCall, func() { e.check(scratch.Put(model) == nil, "store put") })
	get := e.replay("store.get", perCall, func() {
		_, err := scratch.Get("bg")
		e.check(err == nil, "store get: %v", err)
	})
	mb := float64(len(blob)) / 1e6
	e.set("store.encode_mbs", mb/enc)
	e.set("store.decode_mbs", mb/dec)
	e.set("store.put_ms", 1e3*put)
	e.set("store.get_ms", 1e3*get)
	return nil
}

// coreLayers replays the projector on a full batch and reads the small
// refit's iterations as the facade reports them.
func (w *serveFleet) coreLayers(e *env, model *store.Model, perCall time.Duration) error {
	var colErr error
	err := replayProjector(e, model.W, func(j int) []float64 {
		var r serve.ProjectRequest
		if err := json.Unmarshal(w.bodies[j%len(w.bodies)], &r); err != nil {
			colErr = err
		}
		return r.Column
	}, perCall)
	if err = errors.Join(err, colErr); err != nil {
		return err
	}
	var iterMs, initMs []float64
	o := w.smallOpt
	var elapsed []float64
	o.Progress = func(p hpcnmf.Progress) { elapsed = append(elapsed, p.ElapsedSeconds) }
	var ms0, ms1 runtime.MemStats
	for r := 0; r < 10; r++ {
		elapsed = elapsed[:0]
		runtime.ReadMemStats(&ms0)
		t := time.Now()
		res, err := hpcnmf.Run(hpcnmf.WrapDense(w.small), o)
		dt := time.Since(t).Seconds()
		runtime.ReadMemStats(&ms1)
		e.check(err == nil, "in-process small fit: %v", err)
		if err != nil {
			return err
		}
		iters, init := iterationTimes(elapsed, dt)
		iterMs, initMs = append(iterMs, iters...), append(initMs, init)
		if r == 0 {
			e.set("core.iters", float64(res.Iterations))
		}
	}
	e.sample("core.iter_ms_p50", iterMs)
	e.set("core.iter_samples", float64(len(iterMs)))
	e.sample("core.init_ms", initMs)
	e.set("core.relerr_final", w.bgRelErr)
	e.set("core.alloc_mb_per_fit", float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20))
	return nil
}

// tracingOverhead compares the closed loop against a second fleet that
// has the program's own request tracing on.
func (w *serveFleet) tracingOverhead(e *env, model *store.Model, budget time.Duration) error {
	tracedDir := filepath.Join(e.tmp, "store-traced")
	tracedStore, err := store.NewFS(tracedDir)
	if err != nil {
		return err
	}
	if err := tracedStore.Put(model); err != nil { // found by the instances' warm start
		return err
	}
	tracedFleet, err := bootFleet(tracedDir, true)
	if err != nil {
		return err
	}
	defer tracedFleet.close()
	for i := 0; i < 2*fleetSize; i++ { // open connections
		tracedFleet.project(e, tracedFleet.ins[i%fleetSize].addr, w.bodies[i], w.sz.k)
	}
	_, offRPS := w.closedLoop(e, w.fl, budget*8/100, false)
	_, onRPS := w.closedLoop(e, tracedFleet, budget*8/100, false)
	e.set("trace.overhead_frac", (offRPS-onRPS)/offRPS)
	return nil
}
