// Package cluster shards the serving layer across a static peer list:
// model ids map to an owner set by rendezvous (highest-random-weight)
// hashing with a replication factor R, and an HTTP router in front of
// each instance forwards /v1/project and /v1/fit to an owning shard,
// fans committed models out to replicas, and surfaces ownership on
// /healthz and /metrics. The seam mirrors MPI-FAUN's compute split —
// one communication/persistence skeleton, swappable contents: the
// durable model store (internal/store) is the only shared state, so
// killing any single instance loses nothing that was committed.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"

	"hpcnmf/internal/rng"
)

// Topology is the cluster's ownership function: a static, sorted peer
// list plus a replication factor. Every instance is constructed with
// the same peer list, so every instance computes the same owner set
// for every id with no coordination — the property that makes a
// static-membership cluster safe without a consensus service.
//
// Rendezvous hashing beats a hash ring here: no virtual-node tuning,
// perfectly even key distribution at any N, and removing one peer
// reassigns only that peer's keys (each id's other candidates keep
// their relative order).
type Topology struct {
	peers    []string
	replicas int
}

// NewTopology validates and normalizes the peer list (sorted, no
// duplicates, no empties) and clamps the replication factor to
// 1 ≤ r ≤ len(peers).
func NewTopology(peers []string, replicas int) (*Topology, error) {
	if len(peers) == 0 {
		return nil, fmt.Errorf("cluster: empty peer list")
	}
	sorted := append([]string(nil), peers...)
	sort.Strings(sorted)
	for i, p := range sorted {
		if p == "" {
			return nil, fmt.Errorf("cluster: empty peer address in list")
		}
		if i > 0 && sorted[i-1] == p {
			return nil, fmt.Errorf("cluster: duplicate peer %q", p)
		}
	}
	return &Topology{peers: sorted, replicas: min(max(replicas, 1), len(sorted))}, nil
}

// Peers returns the normalized peer list (not a copy; callers must
// not mutate).
func (t *Topology) Peers() []string { return t.peers }

// Replicas returns the effective replication factor.
func (t *Topology) Replicas() int { return t.replicas }

// Contains reports whether peer is a cluster member.
func (t *Topology) Contains(peer string) bool {
	i := sort.SearchStrings(t.peers, peer)
	return i < len(t.peers) && t.peers[i] == peer
}

// score is the rendezvous weight of (peer, id): FNV-1a over the pair
// with a separator, so "ab"+"c" and "a"+"bc" score differently, passed
// through SplitMix64's finalizer. Raw FNV-1a barely moves its high
// bits when only the last characters of the input change, and the high
// bits decide the order: without the finalizer "127.0.0.1:8081..8083"
// and ids "chaos-1..1000" put 991 primaries on one peer and none on
// another. Both steps are deterministic across processes and
// platforms — a requirement, since every instance must agree on
// ownership independently, and the reason all instances of a fleet
// must run the same version of this function.
func score(peer, id string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(peer))
	h.Write([]byte{0})
	h.Write([]byte(id))
	return rng.Mix(h.Sum64())
}

// Owners returns the id's replica set: the R peers with the highest
// rendezvous scores, best first. The first entry is the primary owner;
// the rest are replicas that also hold the model resident and can
// answer for it when the primary is down.
func (t *Topology) Owners(id string) []string {
	type cand struct {
		peer string
		s    uint64
	}
	cands := make([]cand, len(t.peers))
	for i, p := range t.peers {
		cands[i] = cand{peer: p, s: score(p, id)}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].s != cands[j].s {
			return cands[i].s > cands[j].s
		}
		return cands[i].peer < cands[j].peer // deterministic tie-break
	})
	out := make([]string, t.replicas)
	for i := range out {
		out[i] = cands[i].peer
	}
	return out
}

// IsOwner reports whether peer is in id's replica set.
func (t *Topology) IsOwner(peer, id string) bool {
	for _, p := range t.Owners(id) {
		if p == peer {
			return true
		}
	}
	return false
}
