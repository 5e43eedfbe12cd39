package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"time"

	"hpcnmf/internal/metrics"
	"hpcnmf/internal/obs"
	"hpcnmf/internal/serve"
)

// forwardedHeader marks a request that already crossed one shard hop.
// A marked request is always served locally: with a static topology
// every instance computes the same owners, so a second hop could only
// mean disagreement — serving locally degrades gracefully (the model
// faults in from the shared durable store) instead of looping.
const forwardedHeader = "X-Hpcnmf-Forwarded"

// ShardHeader names the instance that actually answered a request.
// Set on fit responses so clients know which shard to poll for the
// job (job ids are shard-local).
const ShardHeader = "X-Shard"

// Options configures a cluster router in front of one serve.Server.
type Options struct {
	// Self is this instance's advertised address, as it appears in
	// Peers (host:port).
	Self string
	// Peers is the static cluster membership, including Self.
	Peers []string
	// Replicas is the replication factor R: each model is resident on
	// its R owners (clamped to [1, len(Peers)]).
	Replicas int
	// Logger receives structured routing logs; nil discards them.
	Logger *slog.Logger
}

// clusterMetrics caches the router's instruments.
type clusterMetrics struct {
	forwarded     *metrics.Counter
	forwardErrors *metrics.Counter
	fanouts       *metrics.Counter
	fanoutErrors  *metrics.Counter
	peersGauge    *metrics.Gauge
	ownedGauge    *metrics.Gauge
}

// Router fronts a serving instance with shard routing: requests for
// models this instance owns (or that already crossed a hop) are served
// locally, everything else is forwarded to the model's owner set in
// rendezvous order. Wire serve.Options.OnCommit/OnDelete to
// FanOutCommit/FanOutDelete so replicas track commits.
type Router struct {
	srv    *serve.Server
	topo   *Topology
	self   string
	client *http.Client
	log    *slog.Logger
	met    *clusterMetrics
	mux    *http.ServeMux
}

// New builds the router. Self must appear in Peers: an instance that
// is not a member would forward every request and own nothing.
func New(srv *serve.Server, opts Options) (*Router, error) {
	topo, err := NewTopology(opts.Peers, opts.Replicas)
	if err != nil {
		return nil, err
	}
	if !topo.Contains(opts.Self) {
		return nil, fmt.Errorf("cluster: self %q is not in the peer list %v", opts.Self, topo.Peers())
	}
	log := opts.Logger
	if log == nil {
		log = obs.Nop()
	}
	reg := srv.Metrics() // the cluster's instruments share the server's /metrics
	r := &Router{
		srv:    srv,
		topo:   topo,
		self:   opts.Self,
		client: &http.Client{Timeout: 30 * time.Second}, // forwarded and fan-out requests
		log:    log.With(obs.KeyComponent, "cluster"),
		met: &clusterMetrics{
			forwarded:     reg.Counter("cluster.forwarded"),
			forwardErrors: reg.Counter("cluster.forward_errors"),
			fanouts:       reg.Counter("cluster.fanouts"),
			fanoutErrors:  reg.Counter("cluster.fanout_errors"),
			peersGauge:    reg.Gauge("cluster.peers"),
			ownedGauge:    reg.Gauge("cluster.owned_models"),
		},
		mux: http.NewServeMux(),
	}
	r.met.peersGauge.Set(float64(len(topo.Peers())))
	r.mux.HandleFunc("POST /v1/project", r.routeByBodyModel)
	r.mux.HandleFunc("POST /v1/fit", r.routeByBodyModel)
	r.mux.HandleFunc("DELETE /v1/models/{id}", r.routeByPathModel)
	r.mux.HandleFunc("POST /internal/v1/rehydrate/{id}", r.handleRehydrate)
	r.mux.HandleFunc("POST /internal/v1/evict/{id}", r.handleEvict)
	r.mux.HandleFunc("GET /healthz", r.handleHealthz)
	r.mux.Handle("/", srv)
	return r, nil
}

// ServeHTTP implements http.Handler.
func (r *Router) ServeHTTP(w http.ResponseWriter, req *http.Request) { r.mux.ServeHTTP(w, req) }

// Owns reports whether this instance is in id's replica set — the
// serve.Options.WarmFilter for a clustered instance.
func (r *Router) Owns(id string) bool { return r.topo.IsOwner(r.self, id) }

// routeByBodyModel routes a request whose model id lives in its JSON
// body (/v1/project, /v1/fit): peek the id, serve locally when this
// instance is in the owner set, otherwise forward to the owners in
// rendezvous order. A request that already crossed a hop is served
// locally whatever it names, so its body goes to the serving layer
// unread.
func (r *Router) routeByBodyModel(w http.ResponseWriter, req *http.Request) {
	if req.Header.Get(forwardedHeader) != "" {
		r.serveLocal(w, req, nil)
		return
	}
	body, ok := serve.ReadBody(w, req)
	if !ok {
		return
	}
	id := serve.PeekModel(body)
	if id == "" {
		// Not routable — let the serving layer produce its usual 400.
		r.serveLocal(w, req, body)
		return
	}
	r.route(w, req, id, body)
}

// routeByPathModel routes a request whose model id is a path segment
// (DELETE /v1/models/{id}).
func (r *Router) routeByPathModel(w http.ResponseWriter, req *http.Request) {
	r.route(w, req, req.PathValue("id"), nil)
}

// route serves locally when allowed, else forwards.
func (r *Router) route(w http.ResponseWriter, req *http.Request, id string, body []byte) {
	if req.Header.Get(forwardedHeader) != "" || r.Owns(id) {
		r.serveLocal(w, req, body)
		return
	}
	r.forward(w, req, id, body)
}

// serveLocal hands the request to the serving layer, restoring the
// consumed body and stamping the shard that answered.
func (r *Router) serveLocal(w http.ResponseWriter, req *http.Request, body []byte) {
	if body != nil {
		req.Body = io.NopCloser(bytes.NewReader(body))
		req.ContentLength = int64(len(body))
	}
	w.Header().Set(ShardHeader, r.self)
	r.srv.ServeHTTP(w, req)
}

// forward proxies the request to the first reachable owner. Owners are
// tried in rendezvous order, so when the primary is down its replica
// answers — the client never needs to know the topology. Only
// transport failures advance to the next owner; any HTTP response
// (including errors) is the answer.
func (r *Router) forward(w http.ResponseWriter, req *http.Request, id string, body []byte) {
	var lastErr error
	for _, owner := range r.topo.Owners(id) {
		if owner == r.self {
			// In the owner set after all (racing config change) — serve.
			r.serveLocal(w, req, body)
			return
		}
		resp, err := r.send(owner, req, body)
		if err != nil {
			lastErr = err
			r.met.forwardErrors.Inc()
			r.log.Warn("forward failed, trying next owner", "model", id, "owner", owner, "err", err)
			continue
		}
		defer resp.Body.Close()
		r.met.forwarded.Inc()
		copyResponse(w, resp)
		return
	}
	httpError(w, http.StatusBadGateway,
		fmt.Errorf("cluster: no owner of model %q reachable (last error: %v)", id, lastErr))
}

// send issues one forwarded copy of req to peer.
func (r *Router) send(peer string, req *http.Request, body []byte) (*http.Response, error) {
	u := url.URL{Scheme: "http", Host: peer, Path: req.URL.Path, RawQuery: req.URL.RawQuery}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	fwd, err := http.NewRequestWithContext(req.Context(), req.Method, u.String(), rd)
	if err != nil {
		return nil, err
	}
	fwd.Header = req.Header.Clone()
	fwd.Header.Set(forwardedHeader, r.self)
	return r.client.Do(fwd)
}

// copyResponse relays an upstream response verbatim — headers, status,
// body bytes — so a forwarded answer is byte-identical to asking the
// owner directly (pinned by the cluster conformance suite).
func copyResponse(w http.ResponseWriter, resp *http.Response) {
	h := w.Header()
	for k, vs := range resp.Header {
		h[k] = vs
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

// FanOutCommit pushes a freshly committed model to its other replicas:
// each owner is asked to rehydrate the id from the shared durable
// store (the model bytes travel through the store, not the request).
// Best-effort by design — a dead replica warm-starts from the same
// store when it returns, so a failed fan-out delays replication
// without losing anything. Wire to serve.Options.OnCommit.
func (r *Router) FanOutCommit(id string) { r.fanOut("rehydrate", id) }

// FanOutDelete evicts a deleted model's resident copies from its
// replicas (the durable entry is already gone). Wire to
// serve.Options.OnDelete.
func (r *Router) FanOutDelete(id string) { r.fanOut("evict", id) }

func (r *Router) fanOut(verb, id string) {
	for _, owner := range r.topo.Owners(id) {
		if owner == r.self {
			continue
		}
		u := url.URL{Scheme: "http", Host: owner, Path: "/internal/v1/" + verb + "/" + url.PathEscape(id)}
		req, err := http.NewRequest(http.MethodPost, u.String(), nil)
		if err != nil {
			r.met.fanoutErrors.Inc()
			continue
		}
		req.Header.Set(forwardedHeader, r.self)
		resp, err := r.client.Do(req)
		if err != nil {
			r.met.fanoutErrors.Inc()
			r.log.Warn("fan-out failed", "verb", verb, "model", id, "replica", owner, "err", err)
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode >= 300 {
			r.met.fanoutErrors.Inc()
			r.log.Warn("fan-out rejected", "verb", verb, "model", id, "replica", owner, "status", resp.StatusCode)
			continue
		}
		r.met.fanouts.Inc()
	}
}

// handleRehydrate is the receiving end of commit fan-out: pull the
// model from the shared durable store into residency.
func (r *Router) handleRehydrate(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	if err := r.srv.Rehydrate(id); err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleEvict is the receiving end of delete fan-out.
func (r *Router) handleEvict(w http.ResponseWriter, req *http.Request) {
	r.srv.Evict(req.PathValue("id"))
	w.WriteHeader(http.StatusNoContent)
}

// PeerHealth is one peer's state as seen from this instance.
type PeerHealth struct {
	Peer      string `json:"peer"`
	Reachable bool   `json:"reachable"`
	Error     string `json:"error,omitempty"`
}

// Health is the /healthz document of a clustered instance.
type Health struct {
	Status   string   `json:"status"`
	Self     string   `json:"self"`
	Peers    []string `json:"peers"`
	Replicas int      `json:"replicas"`
	// Resident counts every model held in memory; Owned counts the
	// resident models whose replica set includes this instance (the
	// two differ when requests faulted in models this shard merely
	// cached for a neighbor).
	Resident int `json:"resident_models"`
	Owned    int `json:"owned_models"`
	// PeerHealth is populated when the probe query parameter is set:
	// each peer's /healthz is pinged with a short deadline.
	PeerHealth []PeerHealth `json:"peer_health,omitempty"`
}

// handleHealthz reports shard health and ownership. GET /healthz
// answers from local state only; GET /healthz?probe=1 additionally
// pings every peer.
func (r *Router) handleHealthz(w http.ResponseWriter, req *http.Request) {
	h := Health{
		Status:   "ok",
		Self:     r.self,
		Peers:    r.topo.Peers(),
		Replicas: r.topo.Replicas(),
	}
	for _, m := range r.srv.Models() {
		h.Resident++
		if r.Owns(m.ID) {
			h.Owned++
		}
	}
	r.met.ownedGauge.Set(float64(h.Owned))
	if req.URL.Query().Get("probe") != "" {
		h.PeerHealth = r.probePeers()
		for _, p := range h.PeerHealth {
			if !p.Reachable {
				h.Status = "degraded"
			}
		}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(h)
}

// probePeers pings every other peer's /healthz with a short deadline.
func (r *Router) probePeers() []PeerHealth {
	var out []PeerHealth
	client := &http.Client{Timeout: 2 * time.Second}
	for _, p := range r.topo.Peers() {
		if p == r.self {
			continue
		}
		ph := PeerHealth{Peer: p}
		u := url.URL{Scheme: "http", Host: p, Path: "/healthz"}
		resp, err := client.Get(u.String())
		if err != nil {
			ph.Error = err.Error()
		} else {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			ph.Reachable = resp.StatusCode == http.StatusOK
			if !ph.Reachable {
				ph.Error = resp.Status
			}
		}
		out = append(out, ph)
	}
	return out
}

func httpError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}
