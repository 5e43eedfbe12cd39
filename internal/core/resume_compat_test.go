package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"os"
	"testing"

	"hpcnmf/internal/grid"
)

// Golden resume-compat fixtures, committed under testdata/. The
// golden_ckpt_v3_* files were written by the first build of checkpoint
// version 3 (the CRC-guarded store container). They pin two contracts
// at once: the on-disk HPNMFCK1 container must keep reading bytes an
// earlier build wrote, and resuming under the same driver must
// reproduce that build's final factors bitwise. (Cross-driver resume
// is tolerance-equal only: the 2D HPC reduction order differs from the
// sequential accumulation order, the same ~1e-15 contract the
// conformance suite pins.) The older fixtures are kept byte for byte
// as the files a version 3 build refuses: golden_ckpt_v2_* (fused
// multiply-add, no CRC) and golden_ckpt_* without a version (separate
// multiply and add).
const goldenM, goldenN, goldenK = 24, 20, 3

func goldenMidCheckpoint(driver string) string {
	return "testdata/golden_ckpt_v3_" + driver + "_bpp_iter6.bin"
}

func goldenFinalCheckpoint(driver string) string {
	return "testdata/golden_ckpt_v3_" + driver + "_bpp_iter9.bin"
}

// v1Checkpoints are the fixtures this build refuses: the four version
// 1 files, then the four version 2 files.
var v1Checkpoints = []string{
	"testdata/golden_ckpt_seq_bpp_iter6.bin", "testdata/golden_ckpt_seq_bpp_iter9.bin",
	"testdata/golden_ckpt_hpc2x2_bpp_iter6.bin", "testdata/golden_ckpt_hpc2x2_bpp_iter9.bin",
	"testdata/golden_ckpt_v2_seq_bpp_iter6.bin", "testdata/golden_ckpt_v2_seq_bpp_iter9.bin",
	"testdata/golden_ckpt_v2_hpc2x2_bpp_iter6.bin", "testdata/golden_ckpt_v2_hpc2x2_bpp_iter9.bin",
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
		t.Fatalf("version 3 checkpoint no longer parses: %v", err)
	}
	return ck
}

// TestV3FixturesReframeV2 proves the one regeneration that wrote the
// version 3 fixtures moved no factor bit and no error-history bit:
// each v3 file, less its trailing CRC-32C, is its v2 file with only
// the header's version changed, and the trailing 4 bytes are the
// CRC-32C of the rest.
func TestV3FixturesReframeV2(t *testing.T) {
	for _, f := range []string{"seq_bpp_iter6", "seq_bpp_iter9", "hpc2x2_bpp_iter6", "hpc2x2_bpp_iter9"} {
		v2, err := os.ReadFile("testdata/golden_ckpt_v2_" + f + ".bin")
		if err != nil {
			t.Fatal(err)
		}
		v3, err := os.ReadFile("testdata/golden_ckpt_v3_" + f + ".bin")
		if err != nil {
			t.Fatal(err)
		}
		body, tail := v3[:len(v3)-4], v3[len(v3)-4:]
		if want := bytes.Replace(v2, []byte(`"version":2`), []byte(`"version":3`), 1); !bytes.Equal(body, want) {
			t.Errorf("%s: the v3 fixture is not the v2 fixture re-versioned", f)
		}
		if binary.LittleEndian.Uint32(tail) != crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)) {
			t.Errorf("%s: the v3 fixture does not end in the CRC-32C of its bytes", f)
		}
	}
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
				t.Fatalf("version 3 checkpoint rejected: %v", err)
			}
			res, err := tc.run(a, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !res.W.Equal(want.W, 0) || !res.H.Equal(want.H, 0) {
				t.Fatal("resume from a version 3 checkpoint diverged from the factors its build wrote")
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
// and version 2 fixture: ReadCheckpoint wraps ErrCheckpointVersion
// instead of resuming factors the fused kernels would continue
// differently (version 1) or factors no CRC vouches for (version 2).
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
	now := encodeCheckpoint(t, testCheckpoint(3))
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
