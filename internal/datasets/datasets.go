// Package datasets generates the four evaluation workloads of the
// paper (§6.1.1), scaled to run on one machine while preserving the
// properties the experiments depend on — aspect ratio, density, and
// structure:
//
//   - DSYN: dense uniform random matrix with Gaussian noise
//     (paper: 172,800 × 115,200; default here 1728 × 1152).
//   - SSYN: sparse Erdős–Rényi matrix of the same shape
//     (paper density 0.001; default here 0.01 to keep a comparable
//     nonzeros-per-row count at the smaller size).
//   - Video: tall-skinny dense matrix of reshaped RGB frames from a
//     synthetic traffic scene — static background plus moving
//     rectangles plus sensor noise (paper: a real 1,013,400 × 2400
//     camera capture; the structure, not the content, is what NMF's
//     background-subtraction use case exercises).
//   - Webbase: adjacency matrix of a synthetic power-law directed
//     graph (paper: the webbase-1M crawl).
//
// All generators are deterministic in their seed.
package datasets

import (
	"fmt"
	"math"
	"strings"

	"hpcnmf/internal/core"
	"hpcnmf/internal/mat"
	"hpcnmf/internal/rng"
	"hpcnmf/internal/sparse"
)

// DSYN generates the dense synthetic matrix: uniform [0,1) entries
// plus Gaussian noise (σ = 0.1), clamped to stay non-negative.
func DSYN(m, n int, seed uint64) *mat.Dense {
	a := mat.NewDense(m, n)
	i := 0
	_ = StreamDSYN(m, n, seed, func(row []float64) error {
		copy(a.Data[i:], row)
		i += n
		return nil
	})
	return a
}

// StreamDSYN generates DSYN one row at a time, calling emit with each
// row in order. The row slice is reused between calls — copy it if it
// must outlive the callback. The values are bitwise identical to
// DSYN's: out-of-core tile files written from this stream factorize
// to exactly the same answer as the in-core matrix. Generation stops
// at the first error emit returns.
func StreamDSYN(m, n int, seed uint64, emit func(row []float64) error) error {
	s := rng.New(seed)
	row := make([]float64, n)
	for i := 0; i < m; i++ {
		for j := range row {
			v := s.Float64() + 0.1*s.Normal()
			if v < 0 {
				v = 0
			}
			row[j] = v
		}
		if err := emit(row); err != nil {
			return err
		}
	}
	return nil
}

// SSYN generates the sparse synthetic matrix: Erdős–Rényi with the
// given density, values uniform in [0,1).
func SSYN(m, n int, density float64, seed uint64) *sparse.CSR {
	return sparse.RandomER(m, n, density, rng.New(seed))
}

// VideoSpec parameterizes the synthetic traffic video.
type VideoSpec struct {
	Width, Height int // pixels per frame
	Frames        int
	Blobs         int     // moving objects
	Noise         float64 // sensor noise stddev
}

// DefaultVideo matches the paper's tall-skinny aspect at laptop scale:
// 48×36 RGB frames (5184 rows) × 240 frames (12 s at 20 fps).
func DefaultVideo() VideoSpec {
	return VideoSpec{Width: 48, Height: 36, Frames: 240, Blobs: 4, Noise: 0.02}
}

// Video renders the synthetic scene and reshapes it into the NMF
// input: every RGB frame is one column (m = Width·Height·3,
// n = Frames), exactly the paper's construction. The background is a
// static smooth gradient; Blobs rectangles drive across the frame
// with constant velocities and wrap around.
func Video(spec VideoSpec, seed uint64) *mat.Dense {
	s := rng.New(seed)
	w, h, frames := spec.Width, spec.Height, spec.Frames
	m := w * h * 3
	a := mat.NewDense(m, frames)

	// Static background: per-channel smooth gradient.
	bg := make([]float64, m)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			base := (y*w + x) * 3
			bg[base+0] = 0.3 + 0.4*float64(x)/float64(w)
			bg[base+1] = 0.3 + 0.4*float64(y)/float64(h)
			bg[base+2] = 0.5
		}
	}
	// Moving rectangles: position, velocity, size, color.
	type blob struct {
		x, y, vx, vy float64
		bw, bh       int
		r, g, b      float64
	}
	blobs := make([]blob, spec.Blobs)
	for i := range blobs {
		blobs[i] = blob{
			x:  s.Float64() * float64(w),
			y:  s.Float64() * float64(h),
			vx: 0.5 + s.Float64()*1.5,
			vy: (s.Float64() - 0.5) * 0.5,
			bw: 3 + s.Intn(5),
			bh: 2 + s.Intn(4),
			r:  s.Float64(), g: s.Float64(), b: s.Float64(),
		}
	}
	for f := 0; f < frames; f++ {
		// Start from the background.
		col := make([]float64, m)
		copy(col, bg)
		// Paint the blobs at their frame-f positions.
		for _, bl := range blobs {
			bx := int(bl.x+bl.vx*float64(f)) % w
			by := int(bl.y+bl.vy*float64(f)+1e4*float64(h)) % h
			for dy := 0; dy < bl.bh; dy++ {
				for dx := 0; dx < bl.bw; dx++ {
					x, y := (bx+dx)%w, (by+dy)%h
					base := (y*w + x) * 3
					col[base+0] = bl.r
					col[base+1] = bl.g
					col[base+2] = bl.b
				}
			}
		}
		// Sensor noise, clamped to [0, 1].
		for i, v := range col {
			v += spec.Noise * s.Normal()
			if v < 0 {
				v = 0
			} else if v > 1 {
				v = 1
			}
			a.Set(i, f, v)
		}
	}
	return a
}

// Webbase generates the power-law directed graph adjacency matrix.
func Webbase(nodes, outDeg int, seed uint64) *sparse.CSR {
	return sparse.RandomPowerLaw(nodes, outDeg, rng.New(seed))
}

// BagOfWordsSpec parameterizes the synthetic text corpus.
type BagOfWordsSpec struct {
	Vocab, Docs int
	// Topics is the number of latent topics documents mix over.
	Topics int
	// DocLen is the token count per document.
	DocLen int
	// ZipfS is the Zipf exponent of the within-topic word
	// distribution (≈1 for natural language); ≤ 0 means 1.1.
	ZipfS float64
}

// BagOfWords generates a term-document count matrix (rows = words,
// columns = documents) — the text-mining workload of the paper's
// introduction ("the popular representation of documents in text
// mining is a bag-of-words matrix"). Each document draws a dominant
// topic; each topic owns a slice of the vocabulary with Zipf-
// distributed word frequencies, so the matrix is sparse with the
// heavy-tailed column profile of real corpora. The planted topic of
// document j is (j · Topics) / Docs, making recovery measurable.
func BagOfWords(spec BagOfWordsSpec, seed uint64) *sparse.CSR {
	if spec.ZipfS <= 0 {
		spec.ZipfS = 1.1
	}
	s := rng.New(seed)
	sliceLen := spec.Vocab / spec.Topics
	// Zipf CDF per within-topic rank, computed once.
	cdf := make([]float64, sliceLen)
	total := 0.0
	for r := 0; r < sliceLen; r++ {
		total += 1 / math.Pow(float64(r+1), spec.ZipfS)
		cdf[r] = total
	}
	for r := range cdf {
		cdf[r] /= total
	}
	counts := map[[2]int]float64{}
	for d := 0; d < spec.Docs; d++ {
		topic := d * spec.Topics / spec.Docs
		base := topic * sliceLen
		for tok := 0; tok < spec.DocLen; tok++ {
			// 10% background noise across the whole vocabulary.
			var w int
			if s.Float64() < 0.1 {
				w = s.Intn(spec.Vocab)
			} else {
				w = base + searchCDF(cdf, s.Float64())
			}
			counts[[2]int{w, d}]++
		}
	}
	coords := make([]sparse.Coord, 0, len(counts))
	for key, c := range counts {
		coords = append(coords, sparse.Coord{Row: key[0], Col: key[1], Val: c})
	}
	return sparse.FromCoords(spec.Vocab, spec.Docs, coords)
}

// searchCDF returns the first index whose cumulative mass exceeds u.
func searchCDF(cdf []float64, u float64) int {
	lo, hi := 0, len(cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Dataset bundles a generated workload with its name. The matrix
// carries everything else: dims, stored entries and, through
// core.UnwrapSparse, its storage kind.
type Dataset struct {
	Name   string
	Matrix core.Matrix
}

// Scale selects dataset sizes: 1.0 reproduces the defaults used by
// the experiment harness; smaller values shrink dims proportionally
// (floored to keep the matrices usable).
type Scale float64

// Dim applies the scale to a default dimension, flooring at 8.
func (s Scale) Dim(v int) int {
	return max(int(float64(v)*float64(s)), 8)
}

// maxBaseDim is the largest default dimension ByName scales (Webbase's
// node count).
const maxBaseDim = 20000

// Check refuses a NaN or ±Inf scale, and one so large that
// maxBaseDim·scale overflows an int, naming it: Dim would floor every
// dimension of such a scale at 8.
func (s Scale) Check() error {
	if math.IsNaN(float64(s)) || math.IsInf(float64(s), 0) {
		return fmt.Errorf("datasets: scale %v is not a finite number", float64(s))
	}
	if float64(s)*maxBaseDim >= math.MaxInt {
		return fmt.Errorf("datasets: scale %v overflows a dimension", float64(s))
	}
	return nil
}

// ByName generates one of the four paper datasets: "dsyn", "ssyn",
// "video", "webbase". Dimensions follow the package defaults times
// scale; a finite scale ≤ 0 means 1, and a non-finite one is an error.
func ByName(name string, scale Scale, seed uint64) (Dataset, error) {
	if err := scale.Check(); err != nil {
		return Dataset{}, err
	}
	if scale <= 0 {
		scale = 1
	}
	switch strings.ToLower(name) {
	case "dsyn":
		m, n := scale.Dim(1728), scale.Dim(1152)
		return Dataset{Name: "DSYN", Matrix: core.WrapDense(DSYN(m, n, seed))}, nil
	case "ssyn":
		m, n := scale.Dim(1728), scale.Dim(1152)
		return Dataset{Name: "SSYN", Matrix: core.WrapSparse(SSYN(m, n, 0.01, seed))}, nil
	case "video":
		spec := DefaultVideo()
		spec.Width = scale.Dim(spec.Width)
		spec.Height = scale.Dim(spec.Height)
		spec.Frames = scale.Dim(spec.Frames)
		return Dataset{Name: "Video", Matrix: core.WrapDense(Video(spec, seed))}, nil
	case "webbase":
		nodes := scale.Dim(20000)
		return Dataset{Name: "Webbase", Matrix: core.WrapSparse(Webbase(nodes, 3, seed))}, nil
	case "bow":
		spec := BagOfWordsSpec{
			Vocab:  scale.Dim(6000),
			Docs:   scale.Dim(4000),
			Topics: 10,
			DocLen: 150,
		}
		if spec.Topics > spec.Vocab {
			spec.Topics = spec.Vocab
		}
		return Dataset{Name: "BagOfWords", Matrix: core.WrapSparse(BagOfWords(spec, seed))}, nil
	default:
		return Dataset{}, fmt.Errorf("datasets: unknown dataset %q (want dsyn, ssyn, video, webbase, bow)", name)
	}
}

// Names lists the four datasets in the paper's presentation order.
func Names() []string { return []string{"ssyn", "dsyn", "webbase", "video"} }
