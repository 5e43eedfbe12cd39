package ooc

import (
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hpcnmf/internal/mat"
	"hpcnmf/internal/rng"
	"hpcnmf/internal/store"
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

// tilePath is a tile file on disk and the read budget under which Open
// gives it the panel height a test asked for.
type tilePath struct {
	path   string
	budget int64
}

// budgetFor is the byte budget under which PanelRows picks tileRows-row
// panels for a cols-wide matrix (0 for tileRows 0: the default).
func budgetFor(tileRows, cols int) int64 {
	return int64(DefaultDepth+1) * int64(tileRows) * int64(cols) * 8
}

func writeTempTile(t *testing.T, d *mat.Dense, tileRows int) tilePath {
	t.Helper()
	path := filepath.Join(t.TempDir(), "a.hpt")
	if err := WriteMatrix(path, d, 0); err != nil {
		t.Fatalf("WriteMatrix: %v", err)
	}
	return tilePath{path, budgetFor(tileRows, d.Cols)}
}

func openTile(t *testing.T, tp tilePath) *File {
	t.Helper()
	f, err := Open(tp.path, tp.budget)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// TestHeaderRoundTrip: a tile file is a one-block container — it
// decodes with store.DecodeContainer to the matrix written, bit for
// bit — its prefix parses to the dims and the payload offset, and the
// budget Open is given sets the panels.
func TestHeaderRoundTrip(t *testing.T) {
	d := testMatrix(t, 1000, 37)
	tp := writeTempTile(t, d, 64)
	raw, err := os.ReadFile(tp.path)
	if err != nil {
		t.Fatal(err)
	}
	rows, cols, payload, err := parsePrefix(raw)
	if err != nil {
		t.Fatalf("parsePrefix: %v", err)
	}
	if want := len(raw) - 1000*37*8 - 4; rows != 1000 || cols != 37 || payload != want {
		t.Fatalf("parsePrefix = %dx%d, payload at %d; want 1000x37 at %d", rows, cols, payload, want)
	}
	var h tileHeader
	blocks, err := store.DecodeContainer(raw, tileMagic, &h, func() error { return nil }, 1)
	if err != nil {
		t.Fatalf("DecodeContainer: %v", err)
	}
	if got := blocks[0]; h.Version != tileVersion || got.Rows != 1000 || got.Cols != 37 {
		t.Fatalf("decoded version %d, %dx%d", h.Version, got.Rows, got.Cols)
	}
	for i, v := range blocks[0].Data {
		if math.Float64bits(v) != math.Float64bits(d.Data[i]) {
			t.Fatalf("element %d decodes to %v, %v was written", i, v, d.Data[i])
		}
	}
	f := openTile(t, tp)
	if got := f.Header(); got != (Header{Rows: 1000, Cols: 37, TileRows: 64}) {
		t.Fatalf("Header() = %+v", got)
	}
	if f.Tiles() != 16 {
		t.Fatalf("Tiles() = %d, want 16", f.Tiles())
	}
	if r0, r1 := f.TileBounds(15); r0 != 960 || r1 != 1000 {
		t.Fatalf("ragged TileBounds(15) = [%d,%d), want [960,1000)", r0, r1)
	}
}

func TestParseHeaderRejects(t *testing.T) {
	raw, err := os.ReadFile(writeTempTile(t, testMatrix(t, 10, 10), 4).path)
	if err != nil {
		t.Fatal(err)
	}
	_, _, payload, err := parsePrefix(raw)
	if err != nil {
		t.Fatal(err)
	}
	good := raw[:payload]
	block := payload - mat.BlockHeaderSize // offset of the block header
	corrupt := func(mutate func(b []byte)) []byte {
		b := append([]byte(nil), good...)
		mutate(b)
		return b
	}
	dims := func(rows, cols uint64) func([]byte) {
		return func(b []byte) {
			binary.LittleEndian.PutUint64(b[block+8:], rows)
			binary.LittleEndian.PutUint64(b[block+16:], cols)
		}
	}
	cases := []struct {
		name string
		b    []byte
		want string
	}{
		{"short", good[:payload-1], "truncated"},
		{"magic", corrupt(func(b []byte) { b[0] = 'X' }), "not a HPNMFT02 container"},
		{"version-1-file", corrupt(func(b []byte) { copy(b, "HPNMFT01") }), "datagen -tiled"},
		{"header-length", corrupt(func(b []byte) { binary.LittleEndian.PutUint32(b[len(tileMagic):], 1<<30) }), "header length"},
		{"header-json", corrupt(func(b []byte) { b[len(tileMagic)+4] = '[' }), "header"},
		{"version", corrupt(func(b []byte) { copy(b[len(tileMagic)+4:], `{"version":2}`) }), "version 2"},
		{"block-magic", corrupt(func(b []byte) { b[block] = 'X' }), "bad magic"},
		{"zero-rows", corrupt(dims(0, 10)), "empty"},
		{"negative-cols", corrupt(dims(10, 1<<64-1)), "implausible"},
		{"overflow", corrupt(dims(1<<62, 1<<62)), "implausible"},
	}
	for _, tc := range cases {
		if _, _, _, err := parsePrefix(tc.b); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

// TestParseHeaderClampsTileRows: a panel taller than the file is cut
// to its rows, at the default budget and at one far above it.
func TestParseHeaderClampsTileRows(t *testing.T) {
	d := testMatrix(t, 5, 3)
	for _, tileRows := range []int{0, 100} {
		f := openTile(t, writeTempTile(t, d, tileRows))
		if h := f.Header(); h.TileRows != 5 || f.Tiles() != 1 {
			t.Fatalf("tileRows %d: TileRows=%d Tiles=%d, want 5, 1", tileRows, h.TileRows, f.Tiles())
		}
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
	path := writeTempTile(t, d, 3).path
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	// Trailing garbage.
	fh, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	fh.Write([]byte{1, 2, 3})
	fh.Close()
	if _, err := Open(path, 0); err == nil || !strings.Contains(err.Error(), "trailing garbage") {
		t.Fatalf("trailing garbage: err = %v", err)
	}

	// Truncation.
	if err := os.Truncate(path, st.Size()-8); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, 0); err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("truncated file: err = %v", err)
	}
}

// TestTileFileRefusesEveryBitFlip flips each bit of a small tile file
// in turn: Open must refuse every one, and a flip in the payload or the
// CRC trailer must be refused by the CRC. Without a CRC over the
// payload, a flipped payload bit opens and a fit factorizes another
// matrix with no error.
func TestTileFileRefusesEveryBitFlip(t *testing.T) {
	path := writeTempTile(t, testMatrix(t, 24, 5), 4).path
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	payload := len(good) - 24*5*8 - 4
	for off := range good {
		for bit := 0; bit < 8; bit++ {
			bad := append([]byte(nil), good...)
			bad[off] ^= 1 << bit
			if err := os.WriteFile(path, bad, 0o644); err != nil {
				t.Fatal(err)
			}
			f, err := Open(path, 0)
			switch {
			case err == nil:
				f.Close()
				t.Fatalf("bit %d of byte %d flipped: tile file opened", bit, off)
			case off >= payload && !errors.Is(err, store.ErrChecksum):
				t.Fatalf("bit %d of payload or trailer byte %d flipped: err = %v, want store.ErrChecksum", bit, off, err)
			}
		}
	}
}

func TestWriterRowCountEnforced(t *testing.T) {
	path := filepath.Join(t.TempDir(), "short.hpt")
	if _, err := Create(path, 4, 3, 2); err == nil || !strings.Contains(err.Error(), "tileRows 2") {
		t.Fatalf("Create with a panel height: err = %v, want one naming tileRows 2", err)
	}
	w, err := Create(path, 4, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	w.WriteRow([]float64{1, 2, 3})
	if err := w.Close(); err == nil || !strings.Contains(err.Error(), "wrote 1 of 4") {
		t.Fatalf("short close: err = %v", err)
	}

	w, err = Create(path, 2, 3, 0)
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

// TestTileRowsForBudget: PanelRows gives the tallest panel whose
// DefaultDepth+1 copies fit the budget, capped at the default height,
// and refuses a budget that cannot hold one row per copy.
func TestTileRowsForBudget(t *testing.T) {
	for _, tc := range []struct {
		cols   int
		budget int64
		want   int
	}{
		{1000, 3 * 1000 * 8 * 10, 10},
		{1000, 3*1000*8*11 - 1, 10},
		{20, 6000, 12},
		{3200, 4 << 20, 54},
		{3200, 1 << 40, (8 << 20) / (3200 * 8)},
	} {
		if got, err := PanelRows(tc.cols, tc.budget); err != nil || got != tc.want {
			t.Errorf("PanelRows(%d, %d) = %d, %v; want %d", tc.cols, tc.budget, got, err, tc.want)
		}
	}
	if _, err := PanelRows(1000, 3*1000*8-1); err == nil {
		t.Fatal("a budget below three one-row panels accepted")
	}
}

// TestDefaultTileRows: with no budget PanelRows gives ~8 MiB panels,
// and at least one row however wide the matrix.
func TestDefaultTileRows(t *testing.T) {
	for _, budget := range []int64{0, -1} {
		if r, err := PanelRows(1<<30, budget); err != nil || r != 1 {
			t.Fatalf("huge width: %d, %v; want 1", r, err)
		}
		if r, err := PanelRows(1024, budget); err != nil || r != (8<<20)/(1024*8) {
			t.Fatalf("PanelRows(1024, %d) = %d, %v", budget, r, err)
		}
	}
}
