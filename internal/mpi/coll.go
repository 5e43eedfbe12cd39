package mpi

import "fmt"

// addInto folds src into dst elementwise: the one reduction the
// collectives perform.
func addInto(dst, src []float64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("mpi: reduction length mismatch %d vs %d", len(dst), len(src)))
	}
	for i, v := range src {
		dst[i] += v
	}
}

// Bcast broadcasts root's data to every rank (binomial tree:
// ⌈log₂ p⌉ messages on the critical path, as assumed in §2.3).
// Non-root callers may pass nil. Every rank returns the payload.
func (c *Comm) Bcast(root int, data []float64) []float64 {
	ev := c.beginColl(CatBcast, len(data))
	defer ev.end()
	if root < 0 || root >= c.Size() {
		panic(fmt.Sprintf("mpi: Bcast root %d of %d", root, c.Size()))
	}
	return c.bcast(root, data, CatBcast)
}

// bcast is Bcast's binomial tree, its messages charged to cat.
func (c *Comm) bcast(root int, data []float64, cat Category) []float64 {
	base := c.opBase()
	p := c.Size()
	rel := (c.rank - root + p) % p
	// Receive phase: a non-root rank receives exactly once, from the
	// rank that differs in its lowest set bit.
	mask := 1
	for mask < p {
		if rel&mask != 0 {
			src := (c.rank - mask + p) % p
			data = c.recv(src, base)
			break
		}
		mask <<= 1
	}
	// Send phase: forward down the remaining subtree.
	mask >>= 1
	for mask > 0 {
		if rel+mask < p {
			dst := (c.rank + mask) % p
			c.send(dst, base, data, cat)
		}
		mask >>= 1
	}
	return data
}

// reduce sums data onto rank 0 (binomial tree, ⌈log₂ p⌉ rounds): rank
// 0 returns the sum, every other rank nil.
func (c *Comm) reduce(data []float64, cat Category) []float64 {
	base := c.opBase()
	acc := make([]float64, len(data))
	copy(acc, data)
	for mask := 1; mask < c.Size(); mask <<= 1 {
		if c.rank&mask == 0 {
			if src := c.rank | mask; src < c.Size() {
				addInto(acc, c.recv(src, base+mask))
			}
		} else {
			c.send(c.rank^mask, base+mask, acc, cat)
			return nil
		}
	}
	return acc
}

// AllReduce sums data across all ranks; every rank returns the full
// reduced vector. For power-of-two communicators it uses
// Rabenseifner's algorithm (recursive-halving reduce-scatter followed
// by recursive-doubling all-gather), which matches the cost the paper
// assumes: 2α·log p + 2β·(p−1)/p·n (§2.3). Otherwise it falls back to
// a binomial reduce onto rank 0 followed by Bcast's tree (same
// latency, slightly more bandwidth).
func (c *Comm) AllReduce(data []float64) []float64 {
	ev := c.beginColl(CatAllReduce, len(data))
	defer ev.end()
	p := c.Size()
	if p == 1 {
		out := make([]float64, len(data))
		copy(out, data)
		return out
	}
	if isPow2(p) && len(data) >= p {
		counts := splitCounts(len(data), p)
		mine := c.reduceScatterRecursiveHalving(data, counts, CatAllReduce)
		return c.allGatherRecursiveDoubling(mine, counts, CatAllReduce)
	}
	return c.bcast(0, c.reduce(data, CatAllReduce), CatAllReduce)
}

// AllGatherV concatenates variable-length contributions: rank i
// contributes counts[i] words (len(data) must equal counts[rank]).
// Every rank returns the full concatenation in rank order.
func (c *Comm) AllGatherV(data []float64, counts []int) []float64 {
	ev := c.beginColl(CatAllGather, len(data))
	defer ev.end()
	p := c.Size()
	if len(counts) != p {
		panic(fmt.Sprintf("mpi: AllGatherV counts length %d != size %d", len(counts), p))
	}
	if len(data) != counts[c.rank] {
		panic(fmt.Sprintf("mpi: AllGatherV rank %d contributed %d words, counts says %d", c.rank, len(data), counts[c.rank]))
	}
	if p == 1 {
		out := make([]float64, len(data))
		copy(out, data)
		return out
	}
	if isPow2(p) {
		return c.allGatherRecursiveDoubling(data, counts, CatAllGather)
	}
	return c.allGatherBruck(data, counts, CatAllGather)
}

// AllGatherLinear is the naive all-gather — every rank sends its
// block directly to every other rank: p−1 messages and (p−1)·n_local
// words per rank, versus ⌈log p⌉ messages for AllGatherV. It exists
// as the ablation baseline quantifying what the collective algorithms
// buy (DESIGN.md decision 1); the NMF algorithms never use it.
func (c *Comm) AllGatherLinear(data []float64, counts []int) []float64 {
	ev := c.beginColl(CatAllGather, len(data))
	defer ev.end()
	base := c.opBase()
	p := c.Size()
	offsets, total := offsetsOf(counts)
	out := make([]float64, total)
	copy(out[offsets[c.rank]:offsets[c.rank]+counts[c.rank]], data)
	for s := 1; s < p; s++ {
		dst := (c.rank + s) % p
		src := (c.rank - s + p) % p
		c.send(dst, base, data, CatAllGather)
		got := c.recv(src, base)
		copy(out[offsets[src]:offsets[src]+counts[src]], got)
	}
	return out
}

// allGatherRecursiveDoubling handles power-of-two communicators: at
// distance d, ranks exchange their currently-held d-aligned block
// group with the partner rank^d. ⌈log p⌉ messages, (p−1)/p·n words.
func (c *Comm) allGatherRecursiveDoubling(data []float64, counts []int, cat Category) []float64 {
	base := c.opBase()
	p := c.Size()
	offsets, total := offsetsOf(counts)
	buf := make([]float64, total)
	copy(buf[offsets[c.rank]:offsets[c.rank]+counts[c.rank]], data)
	for dist := 1; dist < p; dist <<= 1 {
		partner := c.rank ^ dist
		lo := c.rank &^ (dist - 1)
		hi := lo + dist
		plo := partner &^ (dist - 1)
		phi := plo + dist
		c.send(partner, base+dist, buf[offsets[lo]:blockEnd(offsets, counts, hi-1)], cat)
		got := c.recv(partner, base+dist)
		copy(buf[offsets[plo]:blockEnd(offsets, counts, phi-1)], got)
	}
	return buf
}

// allGatherBruck handles arbitrary communicator sizes in ⌈log₂ p⌉
// rounds: at distance d a rank sends its first min(d, p−d) held
// blocks to rank−d and receives the matching blocks from rank+d.
func (c *Comm) allGatherBruck(data []float64, counts []int, cat Category) []float64 {
	base := c.opBase()
	p := c.Size()
	offsets, total := offsetsOf(counts)
	held := make([]float64, 0, total)
	held = append(held, data...)
	for dist := 1; dist < p; dist <<= 1 {
		cnt := min(dist, p-dist)
		sendLen := 0
		for t := 0; t < cnt; t++ {
			sendLen += counts[(c.rank+t)%p]
		}
		dst := (c.rank - dist + p) % p
		src := (c.rank + dist) % p
		c.send(dst, base+dist, held[:sendLen], cat)
		held = append(held, c.recv(src, base+dist)...)
	}
	// held now contains blocks rank, rank+1, …, rank+p−1 (mod p);
	// rotate into canonical order.
	out := make([]float64, total)
	pos := 0
	for t := 0; t < p; t++ {
		b := (c.rank + t) % p
		copy(out[offsets[b]:offsets[b]+counts[b]], held[pos:pos+counts[b]])
		pos += counts[b]
	}
	return out
}

// ReduceScatter sums full-length vectors from all ranks and leaves
// rank i with segment i of the sum, where the segments have the given
// counts (len(data) must equal the sum of counts). Cost:
// α·⌈log p⌉ + (β+γ)·(p−1)/p·n for power-of-two communicators
// (recursive halving); α·(p−1) + β·(p−1)/p·n otherwise (pairwise
// exchange — bandwidth-optimal, latency-suboptimal).
func (c *Comm) ReduceScatter(data []float64, counts []int) []float64 {
	ev := c.beginColl(CatReduceScatter, len(data))
	defer ev.end()
	p := c.Size()
	if len(counts) != p {
		panic(fmt.Sprintf("mpi: ReduceScatter counts length %d != size %d", len(counts), p))
	}
	if _, total := offsetsOf(counts); len(data) != total {
		panic(fmt.Sprintf("mpi: ReduceScatter data length %d != total counts %d", len(data), total))
	}
	if p == 1 {
		out := make([]float64, len(data))
		copy(out, data)
		return out
	}
	if isPow2(p) {
		return c.reduceScatterRecursiveHalving(data, counts, CatReduceScatter)
	}
	return c.reduceScatterPairwise(data, counts, CatReduceScatter)
}

// reduceScatterRecursiveHalving: at each level the active rank group
// splits in half; each rank sends the half of its working vector
// destined for the other side and folds in what it receives.
func (c *Comm) reduceScatterRecursiveHalving(data []float64, counts []int, cat Category) []float64 {
	base := c.opBase()
	p := c.Size()
	offsets, total := offsetsOf(counts)
	buf := make([]float64, total)
	copy(buf, data)
	lo, hi := 0, p
	for dist := p / 2; dist >= 1; dist >>= 1 {
		mid := lo + dist
		var partner, keepLo, keepHi, sendLo, sendHi int
		if c.rank < mid {
			partner = c.rank + dist
			keepLo, keepHi = lo, mid
			sendLo, sendHi = mid, hi
		} else {
			partner = c.rank - dist
			keepLo, keepHi = mid, hi
			sendLo, sendHi = lo, mid
		}
		c.send(partner, base+dist, buf[offsets[sendLo]:blockEnd(offsets, counts, sendHi-1)], cat)
		got := c.recv(partner, base+dist)
		seg := buf[offsets[keepLo]:blockEnd(offsets, counts, keepHi-1)]
		addInto(seg, got)
		lo, hi = keepLo, keepHi
	}
	out := make([]float64, counts[c.rank])
	copy(out, buf[offsets[c.rank]:offsets[c.rank]+counts[c.rank]])
	return out
}

// reduceScatterPairwise: in step s each rank ships the input segment
// belonging to rank+s and folds the segment arriving from rank−s.
func (c *Comm) reduceScatterPairwise(data []float64, counts []int, cat Category) []float64 {
	base := c.opBase()
	p := c.Size()
	offsets, _ := offsetsOf(counts)
	out := make([]float64, counts[c.rank])
	copy(out, data[offsets[c.rank]:offsets[c.rank]+counts[c.rank]])
	for s := 1; s < p; s++ {
		dst := (c.rank + s) % p
		src := (c.rank - s + p) % p
		c.send(dst, base+s, data[offsets[dst]:offsets[dst]+counts[dst]], cat)
		addInto(out, c.recv(src, base+s))
	}
	return out
}

// GatherV collects variable-length contributions on root (linear
// algorithm; used only for one-time result collection, not in the
// iteration loop).
func (c *Comm) GatherV(root int, data []float64, counts []int) []float64 {
	ev := c.beginColl(CatGather, len(data))
	defer ev.end()
	return c.gatherV(root, data, counts, CatGather)
}

// GatherVSetup is GatherV charged to the Setup category, which the
// per-iteration communication models exclude. The checkpointing layer
// uses it so periodic factor gathers do not distort the measured
// collective traffic of the algorithm under study.
func (c *Comm) GatherVSetup(root int, data []float64, counts []int) []float64 {
	ev := c.beginColl(CatSetup, len(data))
	defer ev.end()
	return c.gatherV(root, data, counts, CatSetup)
}

func (c *Comm) gatherV(root int, data []float64, counts []int, cat Category) []float64 {
	base := c.opBase()
	p := c.Size()
	if c.rank != root {
		c.send(root, base, data, cat)
		return nil
	}
	offsets, total := offsetsOf(counts)
	out := make([]float64, total)
	copy(out[offsets[root]:offsets[root]+counts[root]], data)
	for r := 0; r < p; r++ {
		if r == root {
			continue
		}
		got := c.recv(r, base)
		if len(got) != counts[r] {
			panic(fmt.Sprintf("mpi: GatherV rank %d sent %d words, counts says %d", r, len(got), counts[r]))
		}
		copy(out[offsets[r]:offsets[r]+counts[r]], got)
	}
	return out
}

// blockEnd returns the end offset of block b (offsets[b] + counts[b]).
func blockEnd(offsets, counts []int, b int) int { return offsets[b] + counts[b] }

// splitCounts divides n words into p nearly-equal chunks (the
// partition Rabenseifner's all-reduce uses internally).
func splitCounts(n, p int) []int {
	counts := make([]int, p)
	q, r := n/p, n%p
	for i := range counts {
		counts[i] = q
		if i < r {
			counts[i]++
		}
	}
	return counts
}
