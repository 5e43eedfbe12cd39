package cluster

import (
	"fmt"
	"testing"
)

func TestTopologyValidation(t *testing.T) {
	if _, err := NewTopology(nil, 1); err == nil {
		t.Fatal("empty peer list accepted")
	}
	if _, err := NewTopology([]string{"a", ""}, 1); err == nil {
		t.Fatal("empty peer accepted")
	}
	if _, err := NewTopology([]string{"a", "a"}, 1); err == nil {
		t.Fatal("duplicate peer accepted")
	}
	topo, err := NewTopology([]string{"b", "a"}, 99)
	if err != nil {
		t.Fatal(err)
	}
	if topo.Replicas() != 2 {
		t.Fatalf("replicas = %d, want clamp to 2", topo.Replicas())
	}
	if got := fmt.Sprint(topo.Peers()); got != "[a b]" {
		t.Fatalf("peers = %s, want sorted [a b]", got)
	}
}

// TestOwnersDeterministic: every instance must compute identical owner
// sets regardless of the order its peer list was written in.
func TestOwnersDeterministic(t *testing.T) {
	a, _ := NewTopology([]string{"n1:1", "n2:1", "n3:1", "n4:1"}, 2)
	b, _ := NewTopology([]string{"n4:1", "n2:1", "n1:1", "n3:1"}, 2)
	for i := 0; i < 200; i++ {
		id := fmt.Sprintf("model-%d", i)
		if fmt.Sprint(a.Owners(id)) != fmt.Sprint(b.Owners(id)) {
			t.Fatalf("owner sets diverge for %s: %v vs %v", id, a.Owners(id), b.Owners(id))
		}
	}
}

// TestOwnersProperties: R distinct owners, all cluster members, and
// the primary is always first.
func TestOwnersProperties(t *testing.T) {
	peers := []string{"h1:1", "h2:1", "h3:1", "h4:1", "h5:1"}
	topo, _ := NewTopology(peers, 3)
	for i := 0; i < 500; i++ {
		id := fmt.Sprintf("m%d", i)
		owners := topo.Owners(id)
		if len(owners) != 3 {
			t.Fatalf("Owners(%s) has %d entries, want 3", id, len(owners))
		}
		seen := map[string]bool{}
		for _, o := range owners {
			if seen[o] {
				t.Fatalf("Owners(%s) repeats %s", id, o)
			}
			seen[o] = true
			if !topo.Contains(o) {
				t.Fatalf("Owners(%s) includes non-member %s", id, o)
			}
			if !topo.IsOwner(o, id) {
				t.Fatalf("IsOwner(%s, %s) = false for a listed owner", o, id)
			}
		}
		if topo.IsOwner("h1:1", id) != seen["h1:1"] {
			t.Fatalf("IsOwner disagrees with Owners for %s", id)
		}
	}
}

// TestDistributionBalance: rendezvous hashing should spread ownership
// roughly evenly — no peer may own more than twice or less than half
// its fair share, as primary (R=1) or as any owner (R=2). The
// host:port peers and sequential ids differ only in their last
// characters, the input that skewed an unfinalized FNV score to 991 of
// 1000 primaries on one loopback peer and none on another.
func TestDistributionBalance(t *testing.T) {
	for _, tc := range []struct {
		peers    []string
		idFormat string
		keys     int
	}{
		{[]string{"p1:1", "p2:1", "p3:1", "p4:1", "p5:1"}, "user-model-%d", 5000},
		{[]string{"127.0.0.1:8081", "127.0.0.1:8082", "127.0.0.1:8083"}, "chaos-%d", 1000},
		{[]string{"10.0.0.1:7600", "10.0.0.2:7600", "10.0.0.3:7600", "10.0.0.4:7600"}, "m%d", 2000},
	} {
		for _, replicas := range []int{1, 2} {
			topo, _ := NewTopology(tc.peers, replicas)
			counts := map[string]int{}
			for i := 1; i <= tc.keys; i++ {
				for _, o := range topo.Owners(fmt.Sprintf(tc.idFormat, i)) {
					counts[o]++
				}
			}
			fair := tc.keys * replicas / len(tc.peers)
			for _, p := range tc.peers {
				if c := counts[p]; c > 2*fair || c < fair/2 {
					t.Errorf("R=%d: peer %s owns %d of %d keys (fair share %d) — distribution is skewed: %v",
						replicas, p, c, tc.keys, fair, counts)
				}
			}
		}
	}
}

// TestRemovalStability: removing one peer must only reassign keys that
// peer owned — every other key keeps its primary (the property that
// makes kill-one-instance lose only one shard's primaries).
func TestRemovalStability(t *testing.T) {
	all := []string{"q1:1", "q2:1", "q3:1", "q4:1"}
	full, _ := NewTopology(all, 1)
	reduced, _ := NewTopology(all[:3], 1) // q4 removed
	moved := 0
	const keys = 1000
	for i := 0; i < keys; i++ {
		id := fmt.Sprintf("k%d", i)
		before := full.Owners(id)[0]
		after := reduced.Owners(id)[0]
		if before == "q4:1" {
			moved++
			continue // had to move
		}
		if before != after {
			t.Fatalf("key %s moved %s -> %s though its owner survived", id, before, after)
		}
	}
	if moved == 0 || moved > keys/2 {
		t.Fatalf("q4 owned %d of %d keys — implausible", moved, keys)
	}
}
