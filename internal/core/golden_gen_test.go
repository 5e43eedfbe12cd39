package core

import (
	"os"
	"path/filepath"
	"testing"

	"hpcnmf/internal/grid"
)

// TestGenerateGoldenCheckpointFixtures writes the version 3 checkpoint
// fixtures under testdata/ (golden_ckpt_v3_*). They are the
// cross-build resume-compat contract: a checkpoint written by an
// earlier build must load and resume bitwise-identically under the
// current one (see resume_compat_test.go). Two regenerations were
// sanctioned, each bumping CheckpointVersion and writing new files
// beside the old ones: the move of the kernels to fused multiply-add
// changed the arithmetic (1 → 2), and the move to the CRC-guarded
// store container changed the framing (2 → 3; TestV3FixturesReframeV2
// proves no factor bit moved). The older fixtures stay as written, as
// the files a version 3 build refuses. Do NOT regenerate them to paper
// over a divergence — a diff against these bytes IS the bug.
//
// Guarded by HPCNMF_GEN_GOLDEN=1 so a plain `go test` never rewrites
// pinned artifacts.
func TestGenerateGoldenCheckpointFixtures(t *testing.T) {
	if os.Getenv("HPCNMF_GEN_GOLDEN") != "1" {
		t.Skip("set HPCNMF_GEN_GOLDEN=1 to regenerate testdata fixtures")
	}
	a := WrapDense(lowRankDense(goldenM, goldenN, goldenK, 0.01, 5))

	for _, d := range []struct {
		name string
		alg  string
		run  func(a Matrix, opts Options) (*Result, error)
	}{
		{"seq", "Sequential", RunSequential},
		{"hpc2x2", "HPC-NMF 2x2", func(a Matrix, opts Options) (*Result, error) {
			return RunHPC(a, grid.New(2, 2), opts)
		}},
	} {
		// Mid-run checkpoint: 6 of 9 iterations.
		mid := goldenOptions()
		mid.MaxIter = 6
		dir := t.TempDir()
		mid.CheckpointDir = dir
		mid.CheckpointEvery = 3
		if _, err := d.run(a, mid); err != nil {
			t.Fatal(err)
		}
		copyFixture(t, filepath.Join(dir, CheckpointFile), goldenMidCheckpoint(d.name))

		// Final factors of the uninterrupted 9-iteration run, stored in
		// the same container as the bitwise comparison target.
		full := goldenOptions()
		res, err := d.run(a, full)
		if err != nil {
			t.Fatal(err)
		}
		fin := t.TempDir()
		if err := WriteCheckpoint(fin, &Checkpoint{
			Meta: CheckpointMeta{
				Version: CheckpointVersion, Algorithm: d.alg,
				M: goldenM, N: goldenN, K: goldenK,
				Iteration: full.MaxIter, Seed: full.Seed,
				Solver: full.Solver.String(), RelErr: res.RelErr,
			},
			W: res.W, H: res.H,
		}); err != nil {
			t.Fatal(err)
		}
		copyFixture(t, filepath.Join(fin, CheckpointFile), goldenFinalCheckpoint(d.name))
	}
}

func copyFixture(t *testing.T, src, dst string) {
	t.Helper()
	b, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, b, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s (%d bytes)", dst, len(b))
}
