package mat

import (
	"errors"
	"math"
	"testing"

	"hpcnmf/internal/rng"
)

// refSolveSPD is SolveSPDInto in straight-line loops of its own, one
// right-hand-side column at a time: the textbook Cholesky through
// At/Set, the jitter ladder, and forward/back substitution down a
// vector. It fixes the operation order the shaped loops must keep: a
// product per factor entry, subtracted in ascending index as one fused
// multiply-add (the substitution is held to Axpy), zeros skipped, then
// one multiplication by the reciprocal of the diagonal. The factor
// loop is unfused, as CholeskyInto's is.
func refSolveSPD(g, b *Dense) (*Dense, error) {
	k := g.Rows
	factor := func(m *Dense) *Dense {
		l := NewDense(k, k)
		for j := 0; j < k; j++ {
			d := m.At(j, j)
			for t := 0; t < j; t++ {
				d -= float64(l.At(j, t) * l.At(j, t))
			}
			if d <= 0 || math.IsNaN(d) {
				return nil
			}
			l.Set(j, j, math.Sqrt(d))
			for i := j + 1; i < k; i++ {
				s := m.At(i, j)
				for t := 0; t < j; t++ {
					s -= float64(l.At(i, t) * l.At(j, t))
				}
				l.Set(i, j, s*(1/l.At(j, j)))
			}
		}
		return l
	}
	l := factor(g)
	maxDiag := 0.0
	for i := 0; i < k; i++ {
		maxDiag = max(maxDiag, math.Abs(g.At(i, i)))
	}
	if maxDiag == 0 {
		maxDiag = 1
	}
	for try, eps := 0, 1e-12*maxDiag; l == nil; try, eps = try+1, eps*100 {
		if try == 8 {
			return nil, ErrNotPositiveDefinite
		}
		gj := g.Clone()
		for i := 0; i < k; i++ {
			gj.Set(i, i, gj.At(i, i)+eps)
		}
		l = factor(gj)
	}
	x := NewDense(k, b.Cols)
	v := make([]float64, k)
	for j := 0; j < b.Cols; j++ {
		for i := 0; i < k; i++ {
			v[i] = b.At(i, j)
			for t := 0; t < i; t++ {
				if c := l.At(i, t); c != 0 {
					v[i] = math.FMA(-c, v[t], v[i])
				}
			}
			v[i] *= 1 / l.At(i, i)
		}
		for i := k - 1; i >= 0; i-- {
			for t := i + 1; t < k; t++ {
				if c := l.At(t, i); c != 0 {
					v[i] = math.FMA(-c, v[t], v[i])
				}
			}
			v[i] *= 1 / l.At(i, i)
			x.Set(i, j, v[i])
		}
	}
	return x, nil
}

// checkSolveSPD requires SolveSPDInto on the whole right-hand side, and
// on each of its columns alone, to agree with refSolveSPD in every bit
// (or in the error).
func checkSolveSPD(t *testing.T, what string, g, b *Dense) {
	t.Helper()
	want, wantErr := refSolveSPD(g, b)
	ws := NewWorkspace()
	wide := NewDense(b.Rows, b.Cols)
	if err := SolveSPDInto(wide, g, b, ws); !errors.Is(err, wantErr) {
		t.Fatalf("%s: SolveSPDInto err = %v, reference err = %v", what, err, wantErr)
	}
	if wantErr != nil {
		return
	}
	if i := diffBits(wide.Data, want.Data); i >= 0 {
		t.Fatalf("%s: %dx%d solve, entry %d = %x (%g), reference %x (%g)", what, b.Rows, b.Cols, i,
			math.Float64bits(wide.Data[i]), wide.Data[i], math.Float64bits(want.Data[i]), want.Data[i])
	}
	one := NewDense(b.Rows, 1)
	for j := 0; j < b.Cols; j++ {
		for i := 0; i < b.Rows; i++ {
			one.Data[i] = b.At(i, j)
		}
		if err := SolveSPDInto(one, g, one, ws); err != nil { // in place, as BPP calls it
			t.Fatalf("%s: column %d alone: %v", what, j, err)
		}
		for i := 0; i < b.Rows; i++ {
			if math.Float64bits(one.Data[i]) != math.Float64bits(wide.At(i, j)) {
				t.Fatalf("%s: x[%d,%d] = %g solved alone, %g inside the %d-wide right-hand side", what, i, j, one.Data[i], wide.At(i, j), b.Cols)
			}
		}
	}
}

// TestCholSolveColumnIndependentOfWidth: a column's solution does not
// depend on how many columns share its right-hand side — the vector
// form below narrowRHS, the Axpy form above it and the straight-line
// reference agree bit for bit — on a random SPD matrix, on a singular
// Gram that takes the jitter ladder, and on a factor with exact zeros
// below its diagonal (the skipped products) under a right-hand side
// with signed zeros, which a product that was not skipped would flip.
func TestCholSolveColumnIndependentOfWidth(t *testing.T) {
	widths := []int{1, 2, 3, narrowRHS - 1, narrowRHS, narrowRHS + 1, 15, 16, 17, 40, 251}
	for _, k := range []int{1, 2, 5, 6, 20, 50, 65} {
		s := rng.New(uint64(k))
		spd := gram(randomSigned(k+3, k, s))
		for i := 0; i < k; i++ {
			spd.Data[i*k+i]++
		}
		c := randomSigned(k+3, k, s)
		for i := 0; i < c.Rows; i++ {
			c.Set(i, k-1, c.At(i, 0)) // a duplicated column and a zero one
			c.Set(i, k/2, 0)
		}
		zeros := spd.Clone() // decoupled odd and even variables: L[i][t] = 0 for i+t odd
		for i := 0; i < k; i++ {
			for j := 0; j < k; j++ {
				if (i+j)%2 == 1 {
					zeros.Set(i, j, 0)
				}
			}
		}
		for _, r := range widths {
			checkSolveSPD(t, "random SPD", spd, randomSigned(k, r, s))
			checkSolveSPD(t, "singular Gram", gram(c), randomSigned(k, r, s))
			checkSolveSPD(t, "zeros in the factor", zeros, randomSignedZeros(k, r, s))
		}
	}
}

// FuzzCholSolve drives SolveSPDInto with fuzzed shapes (k ≤ 20, r ≤ 18
// on both sides of narrowRHS) and the value alphabet of
// FuzzTileMulABt — so Gram matrices that are singular, indefinite after
// rounding, or hold infinities — against refSolveSPD, whole and column
// by column, at the active dispatch level.
func FuzzCholSolve(f *testing.F) {
	f.Add(uint8(4), uint8(1), uint8(1), []byte{1, 2, 3})
	f.Add(uint8(6), uint8(narrowRHS), uint8(0), []byte{0x80, 0x10, 0, 0xf0, 17})
	f.Add(uint8(20), uint8(17), uint8(16), []byte{0xfe, 0x01, 0x33, 0x7f})
	f.Add(uint8(0), uint8(0), uint8(0), []byte{})
	f.Fuzz(func(t *testing.T, kb, rb, diag uint8, vals []byte) {
		k, r := int(kb)%21, int(rb)%19
		value := fuzzValues(vals)
		m, b := NewDense(k+2, k), NewDense(k, r)
		for _, d := range []*Dense{m, b} {
			for i := range d.Data {
				d.Data[i] = value()
			}
		}
		g := gram(m)
		for i := 0; i < k; i++ {
			g.Data[i*k+i] += float64(diag) / 16
		}
		checkSolveSPD(t, "fuzz", g, b)
	})
}
