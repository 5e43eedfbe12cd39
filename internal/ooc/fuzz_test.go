package ooc

import (
	"bytes"
	"testing"

	"hpcnmf/internal/mat"
	"hpcnmf/internal/store"
)

// tileFront returns the bytes of a tile file up to its payload: the
// container front and the block header of a rows×cols matrix.
func tileFront(rows, cols int) []byte {
	var b bytes.Buffer
	cw, _, _ := store.StartContainer(&b, tileMagic, tileHeader{Version: tileVersion})
	cw.Write(mat.AppendBlockHeader(nil, rows, cols))
	return b.Bytes()
}

// FuzzTileHeader throws arbitrary bytes at the tile-file prefix parser
// and checks the invariants: no panic, every accepted prefix holds a
// non-empty shape the rest of the package can index with int, its
// block header re-encodes to the bytes it was parsed from, and the
// default panels tile its rows exactly.
func FuzzTileHeader(f *testing.F) {
	var whole bytes.Buffer
	if err := store.WriteContainer(&whole, tileMagic, tileHeader{Version: tileVersion}, mat.NewDense(100, 13)); err == nil {
		f.Add(whole.Bytes())
	}
	f.Add(tileFront(1, 1))
	f.Add(tileFront(1<<20, 1<<19))
	f.Add([]byte(tileMagic))
	f.Add([]byte("HPNMFT01"))
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Fuzz(func(t *testing.T, b []byte) {
		rows, cols, payload, err := parsePrefix(b)
		if err != nil {
			return
		}
		if rows < 1 || cols < 1 || int64(rows)*int64(cols) > 1<<40 {
			t.Fatalf("accepted shape %dx%d", rows, cols)
		}
		if payload > len(b) || !bytes.Equal(b[payload-mat.BlockHeaderSize:payload], mat.AppendBlockHeader(nil, rows, cols)) {
			t.Fatalf("block header of %dx%d does not end at payload offset %d", rows, cols, payload)
		}
		tileRows, err := PanelRows(cols, 0)
		if err != nil {
			t.Fatalf("PanelRows(%d, 0): %v", cols, err)
		}
		h := Header{Rows: int64(rows), Cols: int64(cols), TileRows: int64(min(tileRows, rows))}
		if h.Tiles() < 1 || h.MaxTileElems() < 1 {
			t.Fatalf("degenerate tiling: %+v", h)
		}
		if r0, r1 := h.TileBounds(h.Tiles() - 1); r0 < 0 || r1 != rows || r0 >= r1 {
			t.Fatalf("last tile bounds [%d,%d) inconsistent with %+v", r0, r1, h)
		}
	})
}
