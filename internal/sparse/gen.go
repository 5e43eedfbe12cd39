package sparse

import (
	"math"

	"hpcnmf/internal/rng"
)

// RandomER generates an Erdős–Rényi sparse matrix: each entry is
// nonzero independently with probability density, with value uniform
// in [0, 1). This is the paper's SSYN generator (§6.1.1).
//
// Sampling uses geometric skips over the flattened index space, so the
// cost is O(nnz) rather than O(rows·cols).
func RandomER(rows, cols int, density float64, stream *rng.Stream) *CSR {
	if density <= 0 || rows == 0 || cols == 0 {
		return &CSR{Rows: rows, Cols: cols, RowPtr: make([]int, rows+1)}
	}
	density = min(density, 1)
	a := &CSR{Rows: rows, Cols: cols, RowPtr: make([]int, rows+1)}
	total := uint64(rows) * uint64(cols)
	// Geometric inter-arrival sampling: skip ~Exp(1/density) positions
	// between nonzeros. Using the inverse-CDF of the geometric
	// distribution keeps entries sorted by construction.
	idx := uint64(0)
	logq := math.Log1p(-density)
	for {
		u := stream.Float64()
		if u == 0 {
			u = 0.5 / (1 << 53)
		}
		skip := uint64(math.Log(u) / logq)
		idx += skip
		if idx >= total {
			break
		}
		r := int(idx / uint64(cols))
		c := int(idx % uint64(cols))
		a.ColIdx = append(a.ColIdx, c)
		a.Val = append(a.Val, stream.Float64())
		a.RowPtr[r+1]++
		idx++
	}
	for i := 0; i < rows; i++ {
		a.RowPtr[i+1] += a.RowPtr[i]
	}
	return a
}

// RandomPowerLaw generates the adjacency matrix of a directed graph
// with skewed (power-law-like) degree distribution via a
// preferential-attachment process: node t attaches outDeg edges, each
// endpoint chosen preferentially (probability ∝ current in-degree+1).
// Edge weights are 1. This stands in for the Webbase crawl graph
// (§6.1.1): squarish, sparse, heavy-tailed degrees.
func RandomPowerLaw(nodes, outDeg int, stream *rng.Stream) *CSR {
	if nodes <= 0 {
		return &CSR{RowPtr: make([]int, 1)}
	}
	// endpoints is a multiset of target nodes; sampling uniformly from
	// it realizes preferential attachment.
	endpoints := make([]int, 0, nodes*(outDeg+1))
	type edge struct{ from, to int }
	edges := make([]edge, 0, nodes*outDeg)
	for t := 0; t < nodes; t++ {
		endpoints = append(endpoints, t) // the +1 smoothing term
		for e := 0; e < outDeg; e++ {
			var to int
			if t == 0 {
				to = 0
			} else {
				to = endpoints[stream.Intn(len(endpoints))]
			}
			edges = append(edges, edge{from: t, to: to})
			endpoints = append(endpoints, to)
		}
	}
	coords := make([]Coord, 0, len(edges))
	for _, e := range edges {
		coords = append(coords, Coord{Row: e.from, Col: e.to, Val: 1})
	}
	a := FromCoords(nodes, nodes, coords)
	// Collapse duplicate edges (summed by FromCoords) back to weight 1
	// so the matrix is a plain adjacency matrix.
	for i := range a.Val {
		if a.Val[i] > 1 {
			a.Val[i] = 1
		}
	}
	return a
}
