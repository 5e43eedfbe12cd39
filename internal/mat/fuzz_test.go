package mat

import (
	"bytes"
	"math"
	"testing"

	"hpcnmf/internal/par"
)

// FuzzReadBinary hardens the binary factor reader against corrupt
// checkpoints.
func FuzzReadBinary(f *testing.F) {
	var buf bytes.Buffer
	m := NewDense(2, 3)
	m.Set(1, 2, 4.5)
	_ = m.WriteBinary(&buf)
	f.Add(buf.Bytes())
	f.Add([]byte("HPNMFD01"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, input []byte) {
		a, err := ReadBinary(bytes.NewReader(input))
		if err != nil {
			return
		}
		if len(a.Data) != a.Rows*a.Cols {
			t.Fatal("inconsistent matrix accepted")
		}
	})
}

// fuzzValues returns the kernel fuzz targets' value source: it cycles
// through vals, mapping each byte to a small signed dyadic, a signed
// zero or an infinity (1 when vals is empty).
func fuzzValues(vals []byte) func() float64 {
	next := 0
	return func() float64 {
		if len(vals) == 0 {
			return 1
		}
		b := vals[next%len(vals)]
		next++
		switch b {
		case 0x00:
			return 0
		case 0x80:
			return math.Copysign(0, -1)
		case 0x7f:
			return math.Inf(1)
		case 0xff:
			return math.Inf(-1)
		}
		return float64(int8(b)) / 16
	}
}

// FuzzTileMulABt drives the tile kernel with fuzzed shapes (every
// dimension ≤ 40) and fuzzed values — small signed dyadics, signed
// zeros and infinities drawn from the input bytes — and requires C =
// A·Bᵀ bitwise equal to the scalar reference at the active dispatch
// level.
func FuzzTileMulABt(f *testing.F) {
	f.Add(uint8(4), uint8(8), uint8(8), []byte{1, 2, 3})
	f.Add(uint8(5), uint8(3), uint8(9), []byte{0x80, 0x7f, 0, 0xff, 17})
	f.Add(uint8(0), uint8(1), uint8(0), []byte{})
	f.Add(uint8(40), uint8(40), uint8(40), []byte{0xfe, 0x01, 0x33})
	f.Fuzz(func(t *testing.T, mb, nb, kb uint8, vals []byte) {
		m, n, k := int(mb)%41, int(nb)%41, int(kb)%41
		value := fuzzValues(vals)
		a, b := NewDense(m, n), NewDense(k, n)
		for i := range a.Data {
			a.Data[i] = value()
		}
		for i := range b.Data {
			b.Data[i] = value()
		}
		want := NewDense(m, k)
		RefMulABtTo(want, a, b)
		got := NewDense(m, k)
		got.Fill(-7)
		ParMulABtTo(got, a, b, nil)
		for i, w := range want.Data {
			if g := got.Data[i]; math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%dx%d k=%d: C[%d] = %x (%g), want %x (%g)", m, n, k, i,
					math.Float64bits(g), g, math.Float64bits(w), w)
			}
		}
	})
}

// FuzzMulAtB drives C += Aᵀ·B with fuzzed shapes — m ≤ 2·tileKC+10
// reduction rows so chunk boundaries are crossed, k ≤ 140, n ≤
// 2·tileNR+2 so both strip widths are masked and full — and the value
// alphabet of FuzzTileMulABt, and requires the result bitwise equal to the scalar
// reference at the active dispatch level, inline and on a 3-wide pool.
func FuzzMulAtB(f *testing.F) {
	f.Add(uint8(4), uint8(8), uint8(1), []byte{1, 2, 3})
	f.Add(uint8(5), uint8(66), uint8(7), []byte{0x80, 0x7f, 0, 0xff, 17})
	f.Add(uint8(0), uint8(1), uint8(0), []byte{})
	f.Add(uint8(40), uint8(140), uint8(2*tileNR), []byte{0xfe, 0x01, 0x33})
	pool := par.NewPool(3)
	f.Cleanup(pool.Close)
	f.Fuzz(func(t *testing.T, mb, kb, nb uint8, vals []byte) {
		m, k, n := int(mb)%(2*tileKC+11), int(kb)%141, int(nb)%(2*tileNR+3)
		value := fuzzValues(vals)
		a, b, c0 := NewDense(m, k), NewDense(m, n), NewDense(k, n)
		for _, d := range []*Dense{a, b, c0} {
			for i := range d.Data {
				d.Data[i] = value()
			}
		}
		want := c0.Clone()
		RefMulAtBAddTo(want, a, b)
		for _, p := range []*par.Pool{nil, pool} {
			got := c0.Clone()
			ParMulAtBAddTo(got, a, b, p)
			if i := diffBits(got.Data, want.Data); i >= 0 {
				t.Fatalf("m=%d k=%d n=%d pool=%v: C[%d] = %x (%g), want %x (%g)", m, k, n, p != nil, i,
					math.Float64bits(got.Data[i]), got.Data[i], math.Float64bits(want.Data[i]), want.Data[i])
			}
		}
	})
}
