package ooc

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hpcnmf/internal/mat"
	"hpcnmf/internal/rng"
)

func testMatrix(t *testing.T, rows, cols int) *mat.Dense {
	t.Helper()
	d := mat.NewDense(rows, cols)
	s := rng.New(7)
	for i := range d.Data {
		d.Data[i] = s.Float64()
	}
	return d
}

func writeTempTile(t *testing.T, d *mat.Dense, tileRows int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "a.hpt")
	if err := WriteMatrix(path, d, tileRows); err != nil {
		t.Fatalf("WriteMatrix: %v", err)
	}
	return path
}

func openTile(t *testing.T, path string) *File {
	t.Helper()
	f, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

func TestHeaderRoundTrip(t *testing.T) {
	h := Header{Rows: 1000, Cols: 37, TileRows: 64}
	b, err := EncodeHeader(h)
	if err != nil {
		t.Fatalf("EncodeHeader: %v", err)
	}
	if len(b) != HeaderSize {
		t.Fatalf("header is %d bytes, want %d", len(b), HeaderSize)
	}
	got, err := ParseHeader(b)
	if err != nil {
		t.Fatalf("ParseHeader: %v", err)
	}
	if got != h {
		t.Fatalf("round trip: got %+v, want %+v", got, h)
	}
	if got.Tiles() != 16 {
		t.Fatalf("Tiles() = %d, want 16", got.Tiles())
	}
	if r0, r1 := got.TileBounds(15); r0 != 960 || r1 != 1000 {
		t.Fatalf("ragged TileBounds(15) = [%d,%d), want [960,1000)", r0, r1)
	}
}

func TestParseHeaderRejects(t *testing.T) {
	good, err := EncodeHeader(Header{Rows: 10, Cols: 10, TileRows: 4})
	if err != nil {
		t.Fatal(err)
	}
	corrupt := func(mutate func(b []byte)) []byte {
		b := append([]byte(nil), good...)
		mutate(b)
		return b
	}
	cases := []struct {
		name string
		b    []byte
		want string
	}{
		{"short", good[:HeaderSize-1], "truncated"},
		{"magic", corrupt(func(b []byte) { b[0] = 'X' }), "magic"},
		{"crc", corrupt(func(b []byte) { b[20] ^= 1 }), "checksum"},
		{"version", corrupt(func(b []byte) {
			binary.LittleEndian.PutUint32(b[8:], 99)
			binary.LittleEndian.PutUint32(b[56:], crcOf(b))
		}), "version"},
		{"zero-rows", corrupt(func(b []byte) {
			binary.LittleEndian.PutUint64(b[16:], 0)
			binary.LittleEndian.PutUint32(b[56:], crcOf(b))
		}), "shape"},
		{"negative-cols", corrupt(func(b []byte) {
			binary.LittleEndian.PutUint64(b[24:], uint64(18446744073709551615)) // -1
			binary.LittleEndian.PutUint32(b[56:], crcOf(b))
		}), "shape"},
		{"zero-tile", corrupt(func(b []byte) {
			binary.LittleEndian.PutUint64(b[32:], 0)
			binary.LittleEndian.PutUint32(b[56:], crcOf(b))
		}), "tile rows"},
		{"overflow", corrupt(func(b []byte) {
			binary.LittleEndian.PutUint64(b[16:], 1<<62)
			binary.LittleEndian.PutUint64(b[24:], 1<<62)
			binary.LittleEndian.PutUint32(b[56:], crcOf(b))
		}), "implausible"},
	}
	for _, tc := range cases {
		if _, err := ParseHeader(tc.b); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

func crcOf(b []byte) uint32 {
	return crc32.ChecksumIEEE(b[:56])
}

func TestParseHeaderClampsTileRows(t *testing.T) {
	b, err := EncodeHeader(Header{Rows: 5, Cols: 3, TileRows: 100})
	if err != nil {
		t.Fatal(err)
	}
	h, err := ParseHeader(b)
	if err != nil {
		t.Fatal(err)
	}
	if h.TileRows != 5 || h.Tiles() != 1 {
		t.Fatalf("clamp: TileRows=%d Tiles=%d, want 5, 1", h.TileRows, h.Tiles())
	}
}

func TestReadTileRoundTrip(t *testing.T) {
	for _, tileRows := range []int{1, 7, 25, 100} {
		d := testMatrix(t, 100, 13)
		f := openTile(t, writeTempTile(t, d, tileRows))
		got := mat.NewDense(100, 13)
		buf := make([]float64, f.Header().MaxTileElems())
		for tl := 0; tl < f.Tiles(); tl++ {
			data, err := f.ReadTile(tl, buf)
			if err != nil {
				t.Fatalf("tileRows=%d: ReadTile(%d): %v", tileRows, tl, err)
			}
			r0, r1 := f.TileBounds(tl)
			if len(data) != (r1-r0)*13 {
				t.Fatalf("tile %d: %d elems, want %d", tl, len(data), (r1-r0)*13)
			}
			copy(got.Data[r0*13:r1*13], data)
		}
		if !got.Equal(d, 0) {
			t.Fatalf("tileRows=%d: round trip mismatch", tileRows)
		}
		if _, err := f.ReadTile(f.Tiles(), buf); err == nil {
			t.Fatalf("ReadTile past end succeeded")
		}
	}
}

// TestReverseBytes pins the byte reversal a big-endian host applies
// after each tile read, on every host: known words map to their
// byte-reversed images, and reversing twice is the identity.
func TestReverseBytes(t *testing.T) {
	cases := []struct{ in, want uint64 }{
		{0x0123456789abcdef, 0xefcdab8967452301},
		{math.Float64bits(1), 0x000000000000f03f},
		{math.Float64bits(-2.5), 0x00000000000004c0},
		{0, 0},
	}
	v := make([]float64, len(cases))
	for i, c := range cases {
		v[i] = math.Float64frombits(c.in)
	}
	reverseBytes(v)
	for i, c := range cases {
		if got := math.Float64bits(v[i]); got != c.want {
			t.Errorf("reverseBytes(%#016x) = %#016x, want %#016x", c.in, got, c.want)
		}
	}
	reverseBytes(v)
	for i, c := range cases {
		if got := math.Float64bits(v[i]); got != c.in {
			t.Errorf("reversing %#016x twice gave %#016x", c.in, got)
		}
	}
}

func TestOpenRejectsWrongLength(t *testing.T) {
	d := testMatrix(t, 10, 4)
	path := writeTempTile(t, d, 3)

	// Trailing garbage.
	fh, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	fh.Write([]byte{1, 2, 3})
	fh.Close()
	if _, err := Open(path); err == nil || !strings.Contains(err.Error(), "trailing garbage") {
		t.Fatalf("trailing garbage: err = %v", err)
	}

	// Truncation.
	if err := os.Truncate(path, HeaderSize+10*4*8-8); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil {
		t.Fatal("truncated file opened cleanly")
	}
}

func TestWriterRowCountEnforced(t *testing.T) {
	path := filepath.Join(t.TempDir(), "short.hpt")
	w, err := Create(path, 4, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	w.WriteRow([]float64{1, 2, 3})
	if err := w.Close(); err == nil || !strings.Contains(err.Error(), "wrote 1 of 4") {
		t.Fatalf("short close: err = %v", err)
	}

	w, err = Create(path, 2, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteRow([]float64{1, 2}); err == nil {
		t.Fatal("wrong-width row accepted")
	}
	w.WriteRow([]float64{1, 2, 3})
	w.WriteRow([]float64{4, 5, 6})
	if err := w.WriteRow([]float64{7, 8, 9}); err == nil {
		t.Fatal("extra row accepted")
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestPipelineStreamsPasses: every pass delivers the tiles in file
// order with the payload intact, at every depth. A norm
// pipeline also carries Σv² across its first pass in the element order
// of the in-core row-major sum — so the total is ‖A‖²_F to the bit —
// and a plain one sums nothing.
func TestPipelineStreamsPasses(t *testing.T) {
	d := testMatrix(t, 57, 9)
	f := openTile(t, writeTempTile(t, d, 10))
	for _, depth := range []int{1, 2, 4} {
		for _, norm := range []bool{false, true} {
			var p *Pipeline
			if norm {
				p = NewNormPipeline(f, depth, true)
			} else {
				p = NewPipeline(f, depth)
			}
			for pass := 0; pass < 3; pass++ {
				got := mat.NewDense(57, 9)
				var sum float64
				for tl := 0; tl < f.Tiles(); tl++ {
					panel, err := p.Next()
					if err != nil {
						t.Fatalf("depth=%d pass=%d: Next: %v", depth, pass, err)
					}
					if panel.Index != tl {
						t.Fatalf("panel %d arrived as index %d", tl, panel.Index)
					}
					read := d.Data // what the first pass had read at this panel
					if pass == 0 {
						read = d.Data[:panel.Row1*9]
					}
					var want float64
					for _, v := range read {
						want += v * v
					}
					if !norm {
						want = 0
					}
					if panel.SumSquares != want {
						t.Fatalf("depth=%d norm=%v pass=%d tile %d: SumSquares = %v, want %v",
							depth, norm, pass, tl, panel.SumSquares, want)
					}
					sum = panel.SumSquares
					copy(got.Data[panel.Row0*9:panel.Row1*9], panel.Data)
					p.Release(panel)
				}
				if !got.Equal(d, 0) {
					t.Fatalf("depth=%d pass %d mismatch", depth, pass)
				}
				if norm && sum != d.SquaredFrobeniusNorm() {
					t.Fatalf("first-pass sum %v is not the in-core ‖A‖²_F %v", sum, d.SquaredFrobeniusNorm())
				}
			}
			st := p.Stats()
			if st.TilesLoaded < int64(3*f.Tiles()) {
				t.Fatalf("stats: %d tiles loaded, want ≥ %d", st.TilesLoaded, 3*f.Tiles())
			}
			if st.BytesLoaded < int64(3*57*9*8) {
				t.Fatalf("stats: %d bytes loaded, want ≥ %d", st.BytesLoaded, 3*57*9*8)
			}
			p.Close()
			if _, err := p.Next(); err == nil {
				t.Fatal("Next after Close succeeded")
			}
		}
	}
}

func TestTileRowsForBudget(t *testing.T) {
	r, err := TileRowsForBudget(1000, 2, 3*1000*8*10)
	if err != nil {
		t.Fatal(err)
	}
	if r != 10 {
		t.Fatalf("TileRowsForBudget = %d, want 10", r)
	}
	if _, err := TileRowsForBudget(1000, 2, 100); err == nil {
		t.Fatal("impossible budget accepted")
	}
}

func TestDefaultTileRows(t *testing.T) {
	if r := DefaultTileRows(1 << 30); r != 1 {
		t.Fatalf("huge width: %d, want 1", r)
	}
	if r := DefaultTileRows(1024); r != (8<<20)/(1024*8) {
		t.Fatalf("DefaultTileRows(1024) = %d", r)
	}
}
