package mat

import (
	"fmt"
	"math"
	"runtime/debug"
	"syscall"
	"testing"
	"unsafe"

	"hpcnmf/internal/rng"
)

// guardedTail returns n float64s whose last one ends where a PROT_NONE
// page begins, so any read past the end faults. release unmaps them.
func guardedTail(t *testing.T, n int) (d []float64, release func()) {
	t.Helper()
	page := syscall.Getpagesize()
	size := (8*n + page - 1) / page * page
	mem, err := syscall.Mmap(-1, 0, size+page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatal(err)
	}
	if err := syscall.Mprotect(mem[size:], syscall.PROT_NONE); err != nil {
		t.Fatal(err)
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&mem[size-8*n])), n), func() { _ = syscall.Munmap(mem) }
}

// TestStridedTileEdges runs the strided tile at every dispatch level on
// ragged tiles of 1–4 rows × 1–17 columns (masked and full vectors, one
// strip and two) and reduction lengths that end inside a chunk, on its
// edge and past it, reading A both down its columns (Wᵀ·A) and along
// its rows (A·B). Each operand ends against a PROT_NONE page, so a
// masked edge that reads a row or a lane past the last one faults; C
// sits inside NaN sentinels with a gap after every row, so a write
// outside the tile shows. Inside, every entry must be its fused chain
// from C's value, bit for bit.
func TestStridedTileEdges(t *testing.T) {
	restoreISA(t)
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	s := rng.New(107)
	for _, down := range []bool{true, false} {
		for rows := 1; rows <= tileMR; rows++ {
			for w := 1; w <= 2*tileNR+1; w++ {
				for _, steps := range []int{1, 5, tileKC - 1, tileKC, tileKC + 1, 2*tileKC + 3} {
					name := fmt.Sprintf("down=%v %dx%d steps=%d", down, rows, w, steps)
					checkStridedEdge(t, name, s, down, rows, w, steps)
				}
			}
		}
	}
}

func checkStridedEdge(t *testing.T, name string, s *rng.Stream, down bool, rows, w, steps int) {
	a, freeA := guardedTail(t, steps*rows)
	defer freeA()
	b, freeB := guardedTail(t, steps*w)
	defer freeB()
	copy(a, randSlice(len(a), s))
	copy(b, randSlice(len(b), s))
	as, ai := 1, steps // A·B: row r of A is a[r·steps:]
	if down {
		as, ai = rows, 1 // Wᵀ·A: column r of a steps×rows A
	}
	// C: the rows×w tile at row 1, column 1 of a (rows+2)×(w+3) buffer.
	ldc := w + 3
	buf := filled((rows+2)*ldc, tileSentinel)
	want := filled(len(buf), tileSentinel)
	for r := 0; r < rows; r++ {
		for j := 0; j < w; j++ {
			v := 2*s.Float64() - 1
			buf[(r+1)*ldc+1+j] = v
			for i := 0; i < steps; i++ {
				v = math.FMA(a[i*as+r*ai], b[i*w+j], v)
			}
			want[(r+1)*ldc+1+j] = v
		}
	}
	for _, isa := range SupportedISAs() {
		if err := SetISA(isa); err != nil {
			t.Fatal(err)
		}
		got := append([]float64(nil), buf...)
		c := &Dense{Rows: rows, Cols: ldc, Data: got[ldc+1:]}
		func() {
			defer func() {
				if e := recover(); e != nil {
					t.Errorf("%s %s: %v (read past an operand)", isa, name, e)
				}
			}()
			strided{c: c, a: a, as: as, ai: ai, b: b, ldb: w, steps: steps}.run(isaLevel.Load(), 0, rows, 0, w, false)
		}()
		if i := diffBits(got, want); i >= 0 {
			t.Errorf("%s %s: buffer[%d] (row %d, column %d) = %x, want %x", isa, name, i, i/ldc-1, i%ldc-1,
				math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}
