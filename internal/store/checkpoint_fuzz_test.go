package store_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"hpcnmf/internal/core"
	"hpcnmf/internal/mat"
	"hpcnmf/internal/store"
)

// decodeCheckpoint is the checkpoint's ContainerCodec: core's reader,
// and the container writer core's WriteCheckpoint commits through.
func decodeCheckpoint(data []byte) ([]*mat.Dense, func() ([]byte, error), error) {
	ck, err := core.ReadCheckpoint(bytes.NewReader(data))
	if err != nil {
		return nil, nil, err
	}
	return []*mat.Dense{ck.W, ck.H}, func() ([]byte, error) {
		var buf bytes.Buffer
		err := store.WriteContainer(&buf, "HPNMFCK1", ck.Meta, ck.W, ck.H)
		return buf.Bytes(), err
	}, nil
}

// FuzzCheckpoint mutates a checkpoint written by core.WriteCheckpoint
// at one position: the reader must refuse it. The seeds flip a header
// byte, a byte of H's data (which only the CRC can catch) and a CRC
// byte.
func FuzzCheckpoint(f *testing.F) {
	w := mat.NewDense(6, 3)
	w.InitAddressed(3, 0, 0)
	h := mat.NewDense(3, 5)
	h.InitAddressed(4, 0, 0)
	dir := f.TempDir()
	err := core.WriteCheckpoint(dir, &core.Checkpoint{
		Meta: core.CheckpointMeta{
			Version: core.CheckpointVersion, Algorithm: "Fuzz",
			M: 6, N: 5, K: 3, Iteration: 4, Seed: 7, Solver: "BPP",
			RelErr: []float64{0.5, 0.4, 0.3, 0.2},
		},
		W: w, H: h,
	})
	if err != nil {
		f.Fatal(err)
	}
	base, err := os.ReadFile(filepath.Join(dir, core.CheckpointFile))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(20, byte(0x01))
	f.Add(len(base)-12, byte(0x01))
	f.Add(len(base)-1, byte(0x80))
	f.Fuzz(func(t *testing.T, pos int, x byte) {
		store.CheckContainer(t, store.Mutate(base, pos, x), base, decodeCheckpoint)
	})
}
