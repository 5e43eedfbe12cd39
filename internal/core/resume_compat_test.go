package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"os"
	"testing"

	"hpcnmf/internal/grid"
)

// Golden resume-compat fixtures, committed under testdata/. The
// golden_ckpt_v2_* files were written by the first build of checkpoint
// version 2 (the fused multiply-add kernels). They pin two contracts
// at once: the on-disk HPNMFCK1 container must keep reading bytes an
// earlier build wrote, and resuming under the same driver must
// reproduce that build's final factors bitwise. (Cross-driver resume
// is tolerance-equal only: the 2D HPC reduction order differs from the
// sequential accumulation order, the same ~1e-15 contract the
// conformance suite pins.) The golden_ckpt_* files without a version
// were written by version 1 builds (separate multiply and add); they
// are kept byte for byte as the fixtures a version 2 build refuses.
const goldenM, goldenN, goldenK = 24, 20, 3

func goldenMidCheckpoint(driver string) string {
	return "testdata/golden_ckpt_v2_" + driver + "_bpp_iter6.bin"
}

func goldenFinalCheckpoint(driver string) string {
	return "testdata/golden_ckpt_v2_" + driver + "_bpp_iter9.bin"
}

// v1Checkpoints are the four version 1 fixtures.
var v1Checkpoints = []string{
	"testdata/golden_ckpt_seq_bpp_iter6.bin", "testdata/golden_ckpt_seq_bpp_iter9.bin",
	"testdata/golden_ckpt_hpc2x2_bpp_iter6.bin", "testdata/golden_ckpt_hpc2x2_bpp_iter9.bin",
}

// goldenOptions is the exact configuration the fixtures were generated
// with (BPP is the zero-value solver, spelled out here so a default
// change cannot silently re-target the fixtures).
func goldenOptions() Options {
	return Options{K: goldenK, MaxIter: 9, Seed: 7, Solver: SolverBPP, ComputeError: true}
}

func loadGolden(t *testing.T, path string) *Checkpoint {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("golden fixture missing (see TestGenerateGoldenCheckpointFixtures): %v", err)
	}
	defer f.Close()
	ck, err := ReadCheckpoint(f)
	if err != nil {
		t.Fatalf("version 2 checkpoint no longer parses: %v", err)
	}
	return ck
}

// TestResumeCompatWithPreRefactorCheckpoint proves a checkpoint
// written by an earlier build of the current version loads under this
// build and resumes to factors bitwise-identical to that run's final
// factors, under the driver that wrote it. The sequential fixture is
// additionally resumed under the naive driver, which shares the
// sequential accumulation order and so must agree bitwise too.
func TestResumeCompatWithPreRefactorCheckpoint(t *testing.T) {
	a := WrapDense(lowRankDense(goldenM, goldenN, goldenK, 0.01, 5))
	for _, tc := range []struct {
		fixture string
		name    string
		// The naive driver reproduces sequential factors bitwise but
		// all-reduces the objective in a different summation order, so
		// its error history is compared by the cross-driver contract
		// elsewhere, not bitwise here.
		skipRelErr bool
		run        func(a Matrix, opts Options) (*Result, error)
	}{
		{fixture: "seq", name: "sequential", run: RunSequential},
		{fixture: "seq", name: "naive-p4", skipRelErr: true,
			run: func(a Matrix, opts Options) (*Result, error) { return RunNaive(a, 4, opts) }},
		{fixture: "hpc2x2", name: "hpc-2x2",
			run: func(a Matrix, opts Options) (*Result, error) { return RunHPC(a, grid.New(2, 2), opts) }},
	} {
		t.Run(tc.fixture+"/"+tc.name, func(t *testing.T) {
			mid := loadGolden(t, goldenMidCheckpoint(tc.fixture))
			want := loadGolden(t, goldenFinalCheckpoint(tc.fixture))
			if mid.Meta.Iteration != 6 || want.Meta.Iteration != 9 {
				t.Fatalf("fixture iterations %d/%d, want 6/9", mid.Meta.Iteration, want.Meta.Iteration)
			}
			opts, err := mid.Resume(goldenOptions())
			if err != nil {
				t.Fatalf("version 2 checkpoint rejected: %v", err)
			}
			res, err := tc.run(a, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !res.W.Equal(want.W, 0) || !res.H.Equal(want.H, 0) {
				t.Fatal("resume from a version 2 checkpoint diverged from the factors its build wrote")
			}
			if !tc.skipRelErr {
				for i, e := range res.RelErr {
					if want.Meta.RelErr[mid.Meta.Iteration+i] != e {
						t.Fatalf("resumed error history diverges at overall iteration %d", mid.Meta.Iteration+i)
					}
				}
			}
		})
	}
}

// TestCheckpointRefusesVersion1 pins the refusal of every version 1
// fixture: ReadCheckpoint wraps ErrCheckpointVersion instead of
// resuming factors the fused kernels would continue differently.
func TestCheckpointRefusesVersion1(t *testing.T) {
	for _, path := range v1Checkpoints {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		_, err = ReadCheckpoint(f)
		f.Close()
		if !errors.Is(err, ErrCheckpointVersion) {
			t.Errorf("%s: ReadCheckpoint err = %v, want ErrCheckpointVersion", path, err)
		}
	}
}

// TestCheckpointHeaderFormatPinned guards the HPNMFCK1 container
// against silent format drift: magic, header framing, and the JSON
// field names are all load-bearing for cross-version resume. It reads
// the raw header of the oldest fixture, version 1.
func TestCheckpointHeaderFormatPinned(t *testing.T) {
	raw, err := os.ReadFile(v1Checkpoints[0])
	if err != nil {
		t.Fatal(err)
	}
	if string(raw[:8]) != "HPNMFCK1" {
		t.Fatalf("fixture magic %q, want HPNMFCK1", raw[:8])
	}
	if checkpointMagic != "HPNMFCK1" {
		t.Fatalf("checkpointMagic changed to %q — old checkpoints unreadable", checkpointMagic)
	}
	hdrLen := binary.LittleEndian.Uint32(raw[8:12])
	hdr := raw[12 : 12+int(hdrLen)]
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(hdr, &fields); err != nil {
		t.Fatalf("fixture header is not JSON: %v", err)
	}
	for _, key := range []string{"version", "algorithm", "m", "n", "k", "iteration", "seed", "solver", "rel_err"} {
		if _, ok := fields[key]; !ok {
			t.Errorf("fixture header lost field %q", key)
		}
	}
	// A header written today must keep the same field names (pure
	// additions are allowed; renames and removals are not).
	var buf bytes.Buffer
	if err := writeCheckpointTo(&buf, testCheckpoint(3)); err != nil {
		t.Fatal(err)
	}
	now := buf.Bytes()
	nowLen := binary.LittleEndian.Uint32(now[8:12])
	var nowFields map[string]json.RawMessage
	if err := json.Unmarshal(now[12:12+int(nowLen)], &nowFields); err != nil {
		t.Fatal(err)
	}
	for key := range fields {
		if _, ok := nowFields[key]; !ok {
			t.Errorf("current header dropped field %q present in the pre-refactor format", key)
		}
	}
}
