package mpi

import (
	"math"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// sizes exercises power-of-two paths (recursive doubling/halving,
// Rabenseifner), the Bruck/pairwise fallbacks, and the trivial p=1.
var sizes = []int{1, 2, 3, 4, 5, 7, 8, 12, 16}

// TestSendRecv drives the point-to-point primitives every collective is
// built from.
func TestSendRecv(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.send(1, 7, []float64{1, 2, 3}, CatBcast)
		} else {
			got := c.recv(0, 7)
			if len(got) != 3 || got[2] != 3 {
				t.Errorf("Recv got %v", got)
			}
		}
	})
}

func TestSendCopiesPayload(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			buf := []float64{42}
			c.send(1, 0, buf, CatBcast)
			buf[0] = 99 // must not affect the receiver
			c.Barrier()
		} else {
			c.Barrier()
			if got := c.recv(0, 0); got[0] != 42 {
				t.Errorf("payload aliased: got %v", got[0])
			}
		}
	})
}

func TestBarrierOrdering(t *testing.T) {
	// All ranks increment before the barrier; after it, every rank
	// must observe the full count.
	for _, p := range sizes {
		var mu sync.Mutex
		count := 0
		w := NewWorld(p)
		w.Run(func(c *Comm) {
			mu.Lock()
			count++
			mu.Unlock()
			c.Barrier()
			mu.Lock()
			got := count
			mu.Unlock()
			if got != p {
				t.Errorf("p=%d: rank %d saw count %d after barrier", p, c.Rank(), got)
			}
		})
	}
}

func TestBcast(t *testing.T) {
	for _, p := range sizes {
		for root := 0; root < p; root += max(1, p/3) {
			w := NewWorld(p)
			w.Run(func(c *Comm) {
				var data []float64
				if c.Rank() == root {
					data = []float64{3.14, float64(root)}
				}
				got := c.Bcast(root, data)
				if len(got) != 2 || got[0] != 3.14 || got[1] != float64(root) {
					t.Errorf("p=%d root=%d rank=%d: Bcast got %v", p, root, c.Rank(), got)
				}
			})
		}
	}
}

func TestAllReduceSum(t *testing.T) {
	for _, p := range sizes {
		for _, n := range []int{1, 3, p, 4 * p, 4*p + 3} {
			w := NewWorld(p)
			w.Run(func(c *Comm) {
				data := make([]float64, n)
				for i := range data {
					data[i] = float64(c.Rank()*n + i)
				}
				got := c.AllReduce(data)
				for i := range got {
					want := 0.0
					for r := 0; r < p; r++ {
						want += float64(r*n + i)
					}
					if math.Abs(got[i]-want) > 1e-9 {
						t.Fatalf("p=%d n=%d: AllReduce[%d] = %v, want %v", p, n, i, got[i], want)
					}
				}
			})
		}
	}
}

func TestAllGather(t *testing.T) {
	for _, p := range sizes {
		w := NewWorld(p)
		w.Run(func(c *Comm) {
			got := c.AllGatherV([]float64{float64(c.Rank()), float64(c.Rank() * 10)}, splitCounts(2*p, p))
			if len(got) != 2*p {
				t.Fatalf("p=%d: AllGather length %d", p, len(got))
			}
			for r := 0; r < p; r++ {
				if got[2*r] != float64(r) || got[2*r+1] != float64(r*10) {
					t.Fatalf("p=%d: AllGather block %d = %v", p, r, got[2*r:2*r+2])
				}
			}
		})
	}
}

func TestAllGatherV(t *testing.T) {
	for _, p := range sizes {
		// Rank r contributes r+1 words with value r.
		counts := make([]int, p)
		total := 0
		for r := range counts {
			counts[r] = r + 1
			total += r + 1
		}
		w := NewWorld(p)
		w.Run(func(c *Comm) {
			data := make([]float64, c.Rank()+1)
			for i := range data {
				data[i] = float64(c.Rank())
			}
			got := c.AllGatherV(data, counts)
			if len(got) != total {
				t.Fatalf("p=%d: AllGatherV length %d, want %d", p, len(got), total)
			}
			pos := 0
			for r := 0; r < p; r++ {
				for i := 0; i < r+1; i++ {
					if got[pos] != float64(r) {
						t.Fatalf("p=%d: AllGatherV[%d] = %v, want %v", p, pos, got[pos], r)
					}
					pos++
				}
			}
		})
	}
}

// TestAllGatherVValidatesCounts: a contribution whose length is not
// counts[rank], or a counts slice not one entry per member, fails the
// calling rank with an error naming the call instead of gathering a
// misaligned panel.
func TestAllGatherVValidatesCounts(t *testing.T) {
	for _, tc := range []struct {
		name   string
		data   []float64
		counts []int
		want   string
	}{
		{"data≠counts[rank]", []float64{1, 2, 3}, []int{1, 1}, "contributed 3 words, counts says 1"},
		{"len(counts)≠size", []float64{1}, []int{1, 1, 1}, "counts length 3 != size 2"},
	} {
		err := NewWorld(2).RunErr(func(c *Comm) { c.AllGatherV(tc.data, tc.counts) })
		if err == nil || !strings.Contains(err.Error(), "AllGatherV") || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: RunErr = %v, want an AllGatherV error containing %q", tc.name, err, tc.want)
		}
	}
}

func TestReduceScatter(t *testing.T) {
	for _, p := range sizes {
		counts := make([]int, p)
		total := 0
		for r := range counts {
			counts[r] = (r % 3) + 1 // uneven blocks
			total += counts[r]
		}
		w := NewWorld(p)
		w.Run(func(c *Comm) {
			data := make([]float64, total)
			for i := range data {
				data[i] = float64(c.Rank()+1) * float64(i+1)
			}
			got := c.ReduceScatter(data, counts)
			if len(got) != counts[c.Rank()] {
				t.Fatalf("p=%d: segment length %d, want %d", p, len(got), counts[c.Rank()])
			}
			// Expected: sum over ranks of (r+1)*(i+1) = (i+1)·p(p+1)/2.
			off := 0
			for r := 0; r < c.Rank(); r++ {
				off += counts[r]
			}
			scale := float64(p*(p+1)) / 2
			for i := range got {
				want := float64(off+i+1) * scale
				if math.Abs(got[i]-want) > 1e-9*want {
					t.Fatalf("p=%d: ReduceScatter[%d] = %v, want %v", p, i, got[i], want)
				}
			}
		})
	}
}

func TestGatherV(t *testing.T) {
	for _, p := range sizes {
		root := p / 2
		counts := make([]int, p)
		total := 0
		for r := range counts {
			counts[r] = r + 1
			total += r + 1
		}
		w := NewWorld(p)
		w.Run(func(c *Comm) {
			data := make([]float64, counts[c.Rank()])
			for i := range data {
				data[i] = float64(c.Rank())
			}
			gathered := c.GatherV(root, data, counts)
			if c.Rank() != root {
				if gathered != nil {
					t.Errorf("non-root got gather result")
				}
				return
			}
			if len(gathered) != total {
				t.Fatalf("GatherV length %d", len(gathered))
			}
			// Rank r's r+1 words, in rank order.
			at := 0
			for r, n := range counts {
				for _, v := range gathered[at : at+n] {
					if v != float64(r) {
						t.Fatalf("GatherV segment of rank %d holds %v", r, v)
					}
				}
				at += n
			}
		})
	}
}

func TestSubCommunicator(t *testing.T) {
	// Split 6 ranks into a 2x3 grid; row comms gather row members.
	w := NewWorld(6)
	w.Run(func(c *Comm) {
		row := c.Rank() / 3
		members := []int{row * 3, row*3 + 1, row*3 + 2}
		rc := c.Sub(members)
		if rc.Size() != 3 || rc.Rank() != c.Rank()%3 {
			t.Errorf("Sub rank/size wrong: %d/%d", rc.Rank(), rc.Size())
		}
		got := rc.AllGatherV([]float64{float64(c.Rank())}, splitCounts(3, 3))
		for i, v := range got {
			if v != float64(row*3+i) {
				t.Errorf("sub-comm AllGather got %v", got)
			}
		}
	})
}

func TestNestedSubComms(t *testing.T) {
	// Sub of a sub: 8 ranks -> 2 groups of 4 -> pairs.
	w := NewWorld(8)
	w.Run(func(c *Comm) {
		g := c.Rank() / 4
		quad := c.Sub([]int{g * 4, g*4 + 1, g*4 + 2, g*4 + 3})
		pairIdx := quad.Rank() / 2
		pair := quad.Sub([]int{pairIdx * 2, pairIdx*2 + 1})
		sum := pair.AllReduce([]float64{float64(c.Rank())})
		base := g*4 + pairIdx*2
		if sum[0] != float64(base+base+1) {
			t.Errorf("nested sub-comm sum = %v", sum[0])
		}
	})
}

func TestRankPanicPropagates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Run did not propagate rank panic")
		}
	}()
	w := NewWorld(4)
	w.Run(func(c *Comm) {
		if c.Rank() == 2 {
			panic("boom")
		}
		// Other ranks block in a collective; the abort must free them.
		c.Barrier()
	})
}

// TestCollectiveTrafficCounts verifies the counted critical-path
// message complexity matches the algorithms' design: O(log p) for the
// tree/doubling collectives on power-of-two communicators.
func TestCollectiveTrafficCounts(t *testing.T) {
	const p = 8 // power of two: log2 = 3
	const n = 64
	ctrs := make([]*Counters, p)
	NewWorld(p).Run(func(c *Comm) {
		data := make([]float64, n)
		c.AllGatherV(data[:n/p], splitCounts(n, p))
		c.ReduceScatter(data, splitCounts(n, p))
		c.AllReduce(data)
		ctrs[c.Rank()] = c.Counters()
	})
	logp := int64(3)
	for r, ctr := range ctrs {
		ag := ctr.Get(CatAllGather)
		if ag.Msgs != logp {
			t.Errorf("rank %d: AllGather msgs = %d, want %d", r, ag.Msgs, logp)
		}
		// Recursive doubling sends (p-1)/p·n words per rank.
		if want := int64(n - n/p); ag.Words != want {
			t.Errorf("rank %d: AllGather words = %d, want %d", r, ag.Words, want)
		}
		rs := ctr.Get(CatReduceScatter)
		if rs.Msgs != logp {
			t.Errorf("rank %d: ReduceScatter msgs = %d, want %d", r, rs.Msgs, logp)
		}
		if want := int64(n - n/p); rs.Words != want {
			t.Errorf("rank %d: ReduceScatter words = %d, want %d", r, rs.Words, want)
		}
		ar := ctr.Get(CatAllReduce)
		if ar.Msgs != 2*logp {
			t.Errorf("rank %d: AllReduce msgs = %d, want %d", r, ar.Msgs, 2*logp)
		}
		if want := int64(2 * (n - n/p)); ar.Words != want {
			t.Errorf("rank %d: AllReduce words = %d, want %d", r, ar.Words, want)
		}
	}
}

// TestAllReduceTreeTraffic pins AllReduce's fallback — a binomial
// reduce onto rank 0 followed by Bcast's tree — where Rabenseifner
// does not apply: non-power-of-two p, and p = 4 with fewer words than
// ranks. Each tree moves the whole vector along p−1 edges, so summed
// over ranks the call is 2(p−1) messages and 2(p−1)·n words, all
// charged to AllReduce, and every rank returns the same bits.
func TestAllReduceTreeTraffic(t *testing.T) {
	cases := []struct{ p, n int }{{3, 7}, {5, 7}, {6, 13}, {7, 4}, {4, 3}}
	for _, tc := range cases {
		p, n := tc.p, tc.n
		results := make([][]float64, p)
		ctrs := make([]*Counters, p)
		NewWorld(p).Run(func(c *Comm) {
			data := make([]float64, n)
			for i := range data {
				data[i] = 1/float64(c.Rank()+3) + float64(i)
			}
			results[c.Rank()] = c.AllReduce(data)
			ctrs[c.Rank()] = c.Counters()
		})
		for r, got := range results {
			if len(got) != n {
				t.Fatalf("p=%d n=%d: rank %d got %d words", p, n, r, len(got))
			}
			for i, v := range got {
				if math.Float64bits(v) != math.Float64bits(results[0][i]) {
					t.Errorf("p=%d n=%d: rank %d word %d = %v, rank 0 has %v", p, n, r, i, v, results[0][i])
				}
			}
		}
		for i, v := range results[0] {
			want := 0.0
			for r := 0; r < p; r++ {
				want += 1/float64(r+3) + float64(i)
			}
			if math.Abs(v-want) > 1e-12*want {
				t.Errorf("p=%d n=%d: word %d = %v, want %v", p, n, i, v, want)
			}
		}
		var all, ar Traffic
		for _, ctr := range ctrs {
			tot, got := ctr.Total(), ctr.Get(CatAllReduce)
			all.Msgs += tot.Msgs
			all.Words += tot.Words
			ar.Msgs += got.Msgs
			ar.Words += got.Words
		}
		if want := (Traffic{Msgs: int64(2 * (p - 1)), Words: int64(2 * (p - 1) * n)}); ar != want || all != want {
			t.Errorf("p=%d n=%d: AllReduce traffic %+v (all categories %+v), want %+v", p, n, ar, all, want)
		}
	}
}

func TestBruckTrafficCounts(t *testing.T) {
	// p=5 (non-power-of-two): Bruck all-gather must use ⌈log₂5⌉ = 3
	// messages and (p-1)/p·n words per rank.
	const p = 5
	const blockWords = 10
	ctrs := make([]*Counters, p)
	NewWorld(p).Run(func(c *Comm) {
		c.AllGatherV(make([]float64, blockWords), splitCounts(p*blockWords, p))
		ctrs[c.Rank()] = c.Counters()
	})
	for r, ctr := range ctrs {
		ag := ctr.Get(CatAllGather)
		if ag.Msgs != 3 {
			t.Errorf("rank %d: Bruck msgs = %d, want 3", r, ag.Msgs)
		}
		if want := int64((p - 1) * blockWords); ag.Words != want {
			t.Errorf("rank %d: Bruck words = %d, want %d", r, ag.Words, want)
		}
	}
}

func TestCountersSnapshotDiff(t *testing.T) {
	c := NewCounters()
	c.Add(CatAllGather, 2, 100)
	snap := c.Snapshot()
	c.Add(CatAllGather, 3, 50)
	d := c.Diff(snap)
	if got := d.Get(CatAllGather); got.Msgs != 3 || got.Words != 50 {
		t.Fatalf("Diff = %+v", got)
	}
	if tot := c.Total(); tot.Msgs != 5 || tot.Words != 150 {
		t.Fatalf("Total = %+v", tot)
	}
}

func TestSetupExcludedFromTotal(t *testing.T) {
	c := NewCounters()
	c.Add(CatSetup, 10, 1000)
	c.Add(CatBcast, 1, 5)
	if tot := c.Total(); tot.Msgs != 1 || tot.Words != 5 {
		t.Fatalf("Setup leaked into Total: %+v", tot)
	}
}

func TestWorldSizeValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewWorld(0) did not panic")
		}
	}()
	NewWorld(0)
}

func TestAllGatherLinear(t *testing.T) {
	const p = 6
	counts := []int{1, 2, 3, 1, 2, 3}
	ctrs := make([]*Counters, p)
	NewWorld(p).Run(func(c *Comm) {
		data := make([]float64, counts[c.Rank()])
		for i := range data {
			data[i] = float64(c.Rank())
		}
		got := c.AllGatherLinear(data, counts)
		pos := 0
		for r := 0; r < p; r++ {
			for i := 0; i < counts[r]; i++ {
				if got[pos] != float64(r) {
					t.Errorf("AllGatherLinear[%d] = %v, want %v", pos, got[pos], r)
				}
				pos++
			}
		}
		ctrs[c.Rank()] = c.Counters()
	})
	// Critical-path cost: p-1 messages per rank (vs ⌈log p⌉ for the
	// tree algorithms) and the same (p-1)/p·n words.
	for r, ctr := range ctrs {
		ag := ctr.Get(CatAllGather)
		if ag.Msgs != p-1 {
			t.Errorf("rank %d: linear msgs = %d, want %d", r, ag.Msgs, p-1)
		}
		if want := int64((p - 1) * counts[r]); ag.Words != want {
			t.Errorf("rank %d: linear words = %d, want %d", r, ag.Words, want)
		}
	}
}

// TestCollectivesPropertyRandomPayloads cross-checks every collective
// against its mathematical definition on randomized sizes and data
// (testing/quick drives the randomness).
func TestCollectivesPropertyRandomPayloads(t *testing.T) {
	f := func(pRaw, nRaw uint8, seed int64) bool {
		p := int(pRaw)%7 + 1
		n := int(nRaw)%17 + 1
		// Deterministic pseudo-data per (rank, index).
		val := func(r, i int) float64 { return float64((int64(r*1009+i)*2654435761 + seed) % 1000) }
		ok := true
		w := NewWorld(p)
		w.Run(func(c *Comm) {
			data := make([]float64, n)
			for i := range data {
				data[i] = val(c.Rank(), i)
			}
			// AllReduce = elementwise sum over ranks.
			sum := c.AllReduce(data)
			for i := range sum {
				want := 0.0
				for r := 0; r < p; r++ {
					want += val(r, i)
				}
				if math.Abs(sum[i]-want) > 1e-6 {
					ok = false
				}
			}
			// AllGather = concatenation.
			cat := c.AllGatherV(data, splitCounts(p*n, p))
			for r := 0; r < p; r++ {
				for i := 0; i < n; i++ {
					if cat[r*n+i] != val(r, i) {
						ok = false
					}
				}
			}
			// Bcast from the last rank.
			var payload []float64
			if c.Rank() == p-1 {
				payload = data
			}
			got := c.Bcast(p-1, payload)
			for i := range got {
				if got[i] != val(p-1, i) {
					ok = false
				}
			}
		})
		return ok
	}
	if err := quickCheck(f, 40); err != nil {
		t.Fatal(err)
	}
}

// quickCheck adapts testing/quick with a bounded count.
func quickCheck(f interface{}, count int) error {
	return quick.Check(f, &quick.Config{MaxCount: count})
}

func TestMismatchedScheduleDetected(t *testing.T) {
	// Rank 0 runs a Bcast while rank 1 runs a Barrier: neither
	// receive can ever match (like real MPI, a schedule mismatch is a
	// hang), so the deadlock detector must fire.
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched collective schedule not detected")
		}
	}()
	w := NewWorld(2)
	w.SetDeadline(200 * time.Millisecond)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Bcast(0, []float64{1})
			c.recv(1, 99) // blocks: rank 1 never sends tag 99
		} else {
			c.Barrier() // blocks: rank 0 never enters the barrier
		}
	})
}

func TestSubPanicsForNonMember(t *testing.T) {
	w := NewWorld(3)
	defer func() {
		if recover() == nil {
			t.Fatal("non-member Sub did not panic")
		}
	}()
	w.Run(func(c *Comm) {
		// Every rank asks for a group it may not belong to.
		c.Sub([]int{0, 1})
	})
}

func TestP2PInterleavedWithCollectives(t *testing.T) {
	// Out-of-order arrival: rank 0 sends two tagged messages before
	// rank 1 receives them in reverse order around a barrier.
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.send(1, 1, []float64{1}, CatBcast)
			c.send(1, 2, []float64{2}, CatBcast)
			c.Barrier()
		} else {
			c.Barrier()
			if got := c.recv(0, 2); got[0] != 2 {
				t.Errorf("tag 2 payload %v", got[0])
			}
			if got := c.recv(0, 1); got[0] != 1 {
				t.Errorf("tag 1 payload %v", got[0])
			}
		}
	})
}
