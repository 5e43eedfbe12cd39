package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"hpcnmf/internal/fault"
	"hpcnmf/internal/grid"
	"hpcnmf/internal/mat"
	"hpcnmf/internal/mpi"
	"hpcnmf/internal/store"
)

func testCheckpoint(k int) *Checkpoint {
	w := mat.NewDense(6, k)
	w.InitAddressed(3, 0, 0)
	h := mat.NewDense(k, 5)
	h.InitAddressed(4, 0, 0)
	return &Checkpoint{
		Meta: CheckpointMeta{
			Version: CheckpointVersion, Algorithm: "Test",
			M: 6, N: 5, K: k, Iteration: 4, Seed: 7, Solver: "BPP",
			RelErr: []float64{0.5, 0.4, 0.3, 0.2},
		},
		W: w, H: h,
	}
}

// encodeCheckpoint returns the bytes WriteCheckpoint commits for ck.
func encodeCheckpoint(t *testing.T, ck *Checkpoint) []byte {
	t.Helper()
	dir := t.TempDir()
	if err := WriteCheckpoint(dir, ck); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, CheckpointFile))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ck := testCheckpoint(3)
	if err := WriteCheckpoint(dir, ck); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Meta.Algorithm != "Test" || got.Meta.Iteration != 4 || got.Meta.Seed != 7 ||
		got.Meta.Solver != "BPP" || len(got.Meta.RelErr) != 4 {
		t.Fatalf("header did not round-trip: %+v", got.Meta)
	}
	if !got.W.Equal(ck.W, 0) || !got.H.Equal(ck.H, 0) {
		t.Fatal("factors did not round-trip bitwise")
	}
	// A rewrite replaces the file atomically and leaves no temp litter.
	ck.Meta.Iteration = 8
	if err := WriteCheckpoint(dir, ck); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != CheckpointFile {
		t.Fatalf("checkpoint dir holds %v, want only %s", entries, CheckpointFile)
	}
	if got, err = LoadCheckpoint(dir); err != nil || got.Meta.Iteration != 8 {
		t.Fatalf("rewrite not visible: iteration %d, err %v", got.Meta.Iteration, err)
	}
}

func TestCheckpointRejectsCorruptInput(t *testing.T) {
	good := encodeCheckpoint(t, testCheckpoint(3))

	bad := append([]byte(nil), good...)
	copy(bad, "NOTHEADR")
	if _, err := ReadCheckpoint(bytes.NewReader(bad)); err == nil {
		t.Error("corrupt magic accepted")
	}

	for _, cut := range []int{4, len(checkpointMagic) + 2, len(good) / 2, len(good) - 8} {
		if _, err := ReadCheckpoint(bytes.NewReader(good[:cut])); err == nil {
			t.Errorf("truncation at %d of %d bytes accepted", cut, len(good))
		}
	}

	// An implausible header length must fail fast, not allocate 16 MiB.
	bad = append([]byte(nil), good...)
	for i := 0; i < 4; i++ {
		bad[len(checkpointMagic)+i] = 0xff
	}
	if _, err := ReadCheckpoint(bytes.NewReader(bad)); err == nil {
		t.Error("implausible header length accepted")
	}

	// A future schema version is refused rather than misread.
	future := testCheckpoint(3)
	future.Meta.Version = CheckpointVersion + 1
	if _, err := ReadCheckpoint(bytes.NewReader(encodeCheckpoint(t, future))); err == nil {
		t.Error("future checkpoint version accepted")
	}
}

func TestResumeValidatesIdentity(t *testing.T) {
	ck := testCheckpoint(3)
	base := Options{K: 3, MaxIter: 10, Seed: 7, Solver: SolverBPP}
	if _, err := ck.Resume(base); err != nil {
		t.Fatalf("matching options rejected: %v", err)
	}
	for name, opts := range map[string]Options{
		"wrong rank":   {K: 4, MaxIter: 10, Seed: 7},
		"wrong seed":   {K: 3, MaxIter: 10, Seed: 8},
		"wrong solver": {K: 3, MaxIter: 10, Seed: 7, Solver: SolverMU},
		"already done": {K: 3, MaxIter: 4, Seed: 7},
	} {
		if _, err := ck.Resume(opts); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	got, err := ck.Resume(base)
	if err != nil {
		t.Fatal(err)
	}
	if got.MaxIter != 6 || got.InitW != ck.W || got.InitH != ck.H {
		t.Fatalf("Resume rewrote MaxIter=%d InitW=%p, want 6 iterations from the stored factors", got.MaxIter, got.InitW)
	}
}

// runners are the drivers the bitwise-resume contract covers.
// killCall is the per-rank AllReduce occurrence to kill at, chosen to
// strike mid-iteration-5 of a 9-iteration run: the naive driver
// all-reduces once per iteration (the objective), HPC three times (two
// Gram all-reduces plus the objective).
var runners = []struct {
	name     string
	killCall int
	run      func(a Matrix, opts Options) (*Result, error)
}{
	{"sequential", 0, RunSequential},
	{"naive-p4", 5, func(a Matrix, opts Options) (*Result, error) { return RunNaive(a, 4, opts) }},
	{"hpc-2x2", 14, func(a Matrix, opts Options) (*Result, error) { return RunHPC(a, grid.New(2, 2), opts) }},
	{"hpc-4x1", 14, func(a Matrix, opts Options) (*Result, error) { return RunHPC(a, grid.New(4, 1), opts) }},
}

// TestResumeBitwiseIdentical is the acceptance test of the
// checkpoint/restart subsystem: a run killed mid-flight by the fault
// injector is resumed from its last checkpoint and must reproduce the
// uninterrupted run's factors bitwise, on every driver.
func TestResumeBitwiseIdentical(t *testing.T) {
	a := WrapDense(lowRankDense(24, 20, 3, 0.01, 5))
	base := Options{K: 3, MaxIter: 9, Seed: 7, ComputeError: true}

	for _, r := range runners {
		t.Run(r.name, func(t *testing.T) {
			uninterrupted, err := r.run(a, base)
			if err != nil {
				t.Fatal(err)
			}

			dir := t.TempDir()
			opts := base
			opts.CheckpointDir = dir
			opts.CheckpointEvery = 3
			if r.name == "sequential" {
				// No collectives to kill at: simulate the crash by
				// stopping after the second checkpoint.
				opts.MaxIter = 6
				if _, err := r.run(a, opts); err != nil {
					t.Fatal(err)
				}
			} else {
				// Kill rank 1 mid-iteration-5 — past the checkpoint the
				// run wrote after iteration 3.
				opts.Fault = fault.New(0, fault.Rule{
					Action: mpi.FaultKill, Site: "AllReduce", Rank: 1, Call: r.killCall,
				})
				opts.CommDeadline = 5 * 1e9 // 5s backstop against hangs
				_, err := r.run(a, opts)
				var rf *mpi.RankFailedError
				if !errors.As(err, &rf) || !errors.Is(err, mpi.ErrInjectedKill) {
					t.Fatalf("killed run returned %v, want a RankFailedError wrapping ErrInjectedKill", err)
				}
				if rf.Rank != 1 {
					t.Fatalf("failure attributed to rank %d, want 1", rf.Rank)
				}
			}

			ck, err := LoadCheckpoint(dir)
			if err != nil {
				t.Fatalf("no checkpoint survived the crash: %v", err)
			}
			if ck.Meta.Iteration == 0 || ck.Meta.Iteration >= base.MaxIter {
				t.Fatalf("checkpoint at iteration %d, want mid-run", ck.Meta.Iteration)
			}

			resumed, err := ck.Resume(base)
			if err != nil {
				t.Fatal(err)
			}
			resumed.CheckpointDir = dir
			resumed.CheckpointEvery = 3
			res, err := r.run(a, resumed)
			if err != nil {
				t.Fatal(err)
			}

			if !res.W.Equal(uninterrupted.W, 0) || !res.H.Equal(uninterrupted.H, 0) {
				t.Fatal("resumed factors differ from the uninterrupted run")
			}
			if ck.Meta.Iteration+res.Iterations != uninterrupted.Iterations {
				t.Fatalf("checkpointed %d + resumed %d iterations != uninterrupted %d",
					ck.Meta.Iteration, res.Iterations, uninterrupted.Iterations)
			}

			// The resumed run kept checkpointing into the same directory
			// with cumulative iteration counts and full error history.
			final, err := LoadCheckpoint(dir)
			if err != nil {
				t.Fatal(err)
			}
			if final.Meta.Iteration <= ck.Meta.Iteration {
				t.Fatalf("resumed run did not advance the checkpoint (%d -> %d)",
					ck.Meta.Iteration, final.Meta.Iteration)
			}
			if len(final.Meta.RelErr) != final.Meta.Iteration {
				t.Fatalf("checkpoint holds %d error entries for %d iterations",
					len(final.Meta.RelErr), final.Meta.Iteration)
			}
			for i := 0; i < final.Meta.Iteration; i++ {
				if final.Meta.RelErr[i] != uninterrupted.RelErr[i] {
					t.Fatalf("resumed error history diverges at iteration %d", i)
				}
			}
		})
	}

	// Under Tol the stop test reads the error history the checkpoint
	// carries: a run checkpointed one iteration before the
	// uninterrupted run stopped stops after one resumed iteration.
	tolBase := base
	tolBase.MaxIter, tolBase.Tol = 30, 1e-3
	for _, r := range runners {
		t.Run(r.name+"-tol", func(t *testing.T) {
			uninterrupted, err := r.run(a, tolBase)
			if err != nil {
				t.Fatal(err)
			}
			stop := uninterrupted.Iterations
			if stop < 2 || stop >= tolBase.MaxIter {
				t.Fatalf("Tol stopped the run after %d of %d iterations, want mid-run", stop, tolBase.MaxIter)
			}

			dir := t.TempDir()
			opts := tolBase
			opts.MaxIter, opts.CheckpointDir, opts.CheckpointEvery = stop-1, dir, stop-1
			if _, err := r.run(a, opts); err != nil {
				t.Fatal(err)
			}
			ck, err := LoadCheckpoint(dir)
			if err != nil {
				t.Fatal(err)
			}
			resumed, err := ck.Resume(tolBase)
			if err != nil {
				t.Fatal(err)
			}
			res, err := r.run(a, resumed)
			if err != nil {
				t.Fatal(err)
			}

			if res.Iterations != 1 {
				t.Fatalf("resumed run did %d iterations, want the 1 the uninterrupted run had left", res.Iterations)
			}
			if !res.W.Equal(uninterrupted.W, 0) || !res.H.Equal(uninterrupted.H, 0) {
				t.Fatal("resumed factors differ from the uninterrupted run")
			}
			if len(res.RelErr) != 1 || res.RelErr[0] != uninterrupted.RelErr[stop-1] {
				t.Fatalf("resumed RelErr %v, want this run's one entry %v", res.RelErr, uninterrupted.RelErr[stop-1])
			}
		})
	}
}

// TestKillWithoutCheckpointFailsFast pins the fail-fast half of the
// fault-tolerance contract: with no checkpointing configured, a killed
// rank surfaces as a typed error on the caller, quickly, under every
// parallel driver.
func TestKillWithoutCheckpointFailsFast(t *testing.T) {
	a := WrapDense(lowRankDense(24, 20, 3, 0.01, 5))
	for _, r := range runners[1:] { // parallel drivers only
		t.Run(r.name, func(t *testing.T) {
			opts := Options{K: 3, MaxIter: 9, Seed: 7, ComputeError: true}
			opts.Fault = fault.New(0, fault.Rule{Action: mpi.FaultKill, Site: "AllGather", Rank: 0, Call: 2})
			opts.CommDeadline = 5 * 1e9
			res, err := r.run(a, opts)
			if err == nil {
				t.Fatalf("run survived an injected kill: %+v", res.Iterations)
			}
			var rf *mpi.RankFailedError
			if !errors.As(err, &rf) || !errors.Is(err, mpi.ErrInjectedKill) {
				t.Fatalf("got %v, want RankFailedError wrapping ErrInjectedKill", err)
			}
			if rf.Rank != 0 || rf.Site != "AllGather" {
				t.Fatalf("failure = rank %d at %q, want rank 0 at AllGather", rf.Rank, rf.Site)
			}
		})
	}
}

// TestCheckpointCrashMidWriteRecovery simulates a process killed
// between staging the temp file and the rename: the directory then
// holds the previous good checkpoint plus tmp litter. LoadCheckpoint
// must return the good checkpoint untouched, and the next
// checkpointing run must sweep the stale temps.
func TestCheckpointCrashMidWriteRecovery(t *testing.T) {
	dir := t.TempDir()
	good := testCheckpoint(3)
	if err := WriteCheckpoint(dir, good); err != nil {
		t.Fatal(err)
	}

	// Crash 1: temp fully staged, rename never happened.
	newer := testCheckpoint(3)
	newer.Meta.Iteration = 7
	raw := encodeCheckpoint(t, newer)
	staged := filepath.Join(dir, CheckpointFile+".tmp-11111")
	if err := os.WriteFile(staged, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	// Crash 2: temp torn mid-write.
	torn := filepath.Join(dir, CheckpointFile+".tmp-22222")
	if err := os.WriteFile(torn, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	got, err := LoadCheckpoint(dir)
	if err != nil {
		t.Fatalf("crash litter broke recovery: %v", err)
	}
	if got.Meta.Iteration != good.Meta.Iteration || !got.W.Equal(good.W, 0) || !got.H.Equal(good.H, 0) {
		t.Fatal("recovered checkpoint is not the previous good one")
	}

	// A new checkpointing run sweeps the stale temps on startup.
	opts, err := Options{K: 3, MaxIter: 10, Seed: 7, CheckpointDir: dir, CheckpointEvery: 2}.withDefaults(6, 5)
	if err != nil {
		t.Fatal(err)
	}
	if c := newCheckpointer(opts, "Test", 6, 5); c == nil {
		t.Fatal("checkpointer not created")
	}
	for _, p := range []string{staged, torn} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("stale temp %s survived the startup sweep", filepath.Base(p))
		}
	}
	if _, err := LoadCheckpoint(dir); err != nil {
		t.Fatalf("sweep damaged the committed checkpoint: %v", err)
	}
}

// TestCheckpointTornRenameRecovery covers the non-atomic worst case:
// the committed file itself is torn (half a checkpoint). Loading must
// fail loudly — never hand back a partial checkpoint — and a
// subsequent successful write must restore loadability.
func TestCheckpointTornRenameRecovery(t *testing.T) {
	dir := t.TempDir()
	ck := testCheckpoint(3)
	if err := WriteCheckpoint(dir, ck); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, CheckpointFile)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(dir); err == nil {
		t.Fatal("torn checkpoint loaded cleanly")
	}
	if err := WriteCheckpoint(dir, ck); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(dir); err != nil {
		t.Fatalf("rewrite after torn file: %v", err)
	}
}

// TestCheckpointRejectsTrailingGarbage: bytes after the H factor mean
// corruption; ReadCheckpoint owns the whole stream and must say so.
func TestCheckpointRejectsTrailingGarbage(t *testing.T) {
	raw := encodeCheckpoint(t, testCheckpoint(3))
	if _, err := ReadCheckpoint(bytes.NewReader(raw)); err != nil {
		t.Fatalf("clean checkpoint rejected: %v", err)
	}
	dirty := append(append([]byte(nil), raw...), 0x00)
	if _, err := ReadCheckpoint(bytes.NewReader(dirty)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
}

// TestCheckpointRefusesEveryBitFlip flips each bit of each byte of a
// version 3 checkpoint in turn: LoadCheckpoint must refuse every one,
// and a flip anywhere in the factor blocks must be refused by the CRC.
// Without the CRC a flipped factor bit resumes a different run with no
// error.
func TestCheckpointRefusesEveryBitFlip(t *testing.T) {
	good, err := os.ReadFile(goldenMidCheckpoint("seq"))
	if err != nil {
		t.Fatal(err)
	}
	factors := len(checkpointMagic) + 4 + int(binary.LittleEndian.Uint32(good[len(checkpointMagic):]))
	dir := t.TempDir()
	path := filepath.Join(dir, CheckpointFile)
	for off := range good {
		for bit := 0; bit < 8; bit++ {
			bad := append([]byte(nil), good...)
			bad[off] ^= 1 << bit
			if err := os.WriteFile(path, bad, 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := LoadCheckpoint(dir)
			switch {
			case err == nil:
				t.Fatalf("bit %d of byte %d flipped: checkpoint accepted", bit, off)
			case off >= factors && off < len(good)-4 && !errors.Is(err, store.ErrChecksum):
				t.Fatalf("bit %d of factor byte %d flipped: err = %v, want store.ErrChecksum", bit, off, err)
			}
		}
	}
}

// TestCheckpointWriteFailureSurfaces: a checkpoint that cannot be
// written fails the run loudly instead of silently dropping coverage,
// with the file system's error still in the chain under every layout.
func TestCheckpointWriteFailureSurfaces(t *testing.T) {
	blocker := filepath.Join(t.TempDir(), "ckpt")
	if err := os.WriteFile(blocker, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	opts := Options{K: 2, MaxIter: 4, Seed: 7, CheckpointDir: blocker, CheckpointEvery: 2}
	for _, ep := range entryPoints(t, lowRankDense(12, 10, 2, 0.01, 5)) {
		_, err := ep.run(opts)
		if err == nil {
			t.Errorf("%s run ignored a failing checkpoint path", ep.name)
		} else if pe := (*fs.PathError)(nil); !errors.As(err, &pe) {
			t.Errorf("%s: error %q does not wrap the write's cause", ep.name, err)
		}
	}
}
