package core

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"hpcnmf/internal/mat"
	"hpcnmf/internal/store"
)

// Checkpointing: every Options.CheckpointEvery iterations the run loop
// gathers the full factors on rank 0 (a Setup-charged collective, so
// the measured per-iteration traffic of the algorithm is undisturbed)
// and atomically replaces one file in Options.CheckpointDir. The file
// is a two-block store container — a versioned CheckpointMeta header
// with the iteration count, problem shape, seed (the run's entire RNG
// state: every random draw in a run is a pure function of it), and
// error history, then W and H, then a CRC-32C — so a separate process
// can pick the job up where it died, and a flipped bit is refused
// rather than resumed. Because an alternating iteration is a
// deterministic function of (W, H) and the parallel drivers slice
// explicit initial factors exactly like generated ones, a resumed run
// recomputes the remaining iterations bitwise-identically to an
// uninterrupted one (pinned by TestResumeBitwiseIdentical).

// checkpointMagic identifies a checkpoint container.
const checkpointMagic = "HPNMFCK1"

// CheckpointVersion covers the header schema, the framing and the
// arithmetic that wrote the factors: a resume is bitwise only when the
// kernels that continue a run round like the ones that began it.
// Version 3 is the CRC-guarded container; version 2 files (fused
// multiply-add, no CRC) and version 1 files (separate multiply and
// add) are refused with ErrCheckpointVersion rather than resumed
// unchecked or onto a different trajectory.
const CheckpointVersion = 3

// ErrCheckpointVersion is wrapped by ReadCheckpoint when a checkpoint
// was written under another CheckpointVersion. The version is checked
// before the CRC, so a file that predates the CRC gets this error.
var ErrCheckpointVersion = errors.New("core: checkpoint version not readable by this build")

// CheckpointFile is the file name written inside CheckpointDir.
const CheckpointFile = "checkpoint.bin"

// CheckpointMeta is the versioned checkpoint header.
type CheckpointMeta struct {
	Version int `json:"version"`
	// Algorithm is the display name of the driver that wrote the
	// checkpoint (e.g. "HPC-NMF 4x4"), for provenance.
	Algorithm string `json:"algorithm"`
	// M, N are the data-matrix dims; K is the factorization rank.
	M int `json:"m"`
	N int `json:"n"`
	K int `json:"k"`
	// Iteration is the number of completed alternating iterations the
	// stored factors correspond to.
	Iteration int `json:"iteration"`
	// Seed is the run's RNG state: all randomness in a run (factor
	// init, datasets) is element-addressed from it, so storing the
	// seed captures the generator exactly.
	Seed uint64 `json:"seed"`
	// Solver names the local NLS method, which must match on resume.
	Solver string `json:"solver"`
	// RelErr is the per-iteration relative-error history up to
	// Iteration (empty when ComputeError was off).
	RelErr []float64 `json:"rel_err,omitempty"`
}

// Checkpoint is one restartable snapshot: the header plus the full
// factors W (m×k) and H (k×n).
type Checkpoint struct {
	Meta CheckpointMeta
	W, H *mat.Dense
}

// WriteCheckpoint atomically replaces dir/checkpoint.bin with the
// snapshot through store.ReplaceFile, so a crash mid-write can never
// leave a torn checkpoint behind — readers see the old complete file
// or the new complete file.
func WriteCheckpoint(dir string, ck *Checkpoint) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("core: checkpoint dir: %w", err)
	}
	err := store.ReplaceFile(dir, CheckpointFile, func(w io.Writer) error {
		return store.WriteContainer(w, checkpointMagic, ck.Meta, ck.W, ck.H)
	})
	if err != nil {
		return fmt.Errorf("core: writing checkpoint: %w", err)
	}
	return nil
}

// LoadCheckpoint reads dir/checkpoint.bin. Corrupt input — bad magic,
// an implausible header, a CRC mismatch (store.ErrChecksum), truncated
// factors — yields an error, never a partial checkpoint.
func LoadCheckpoint(dir string) (*Checkpoint, error) {
	f, err := os.Open(filepath.Join(dir, CheckpointFile))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadCheckpoint(f)
}

// ReadCheckpoint parses a checkpoint stream written by WriteCheckpoint.
func ReadCheckpoint(r io.Reader) (*Checkpoint, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("core: reading checkpoint: %w", err)
	}
	ck := &Checkpoint{}
	factors, err := store.DecodeContainer(data, checkpointMagic, &ck.Meta, func() error {
		if ck.Meta.Version != CheckpointVersion {
			return fmt.Errorf("%w: file has version %d, this build reads %d", ErrCheckpointVersion, ck.Meta.Version, CheckpointVersion)
		}
		return nil
	}, 2)
	if err != nil {
		return nil, err
	}
	ck.W, ck.H = factors[0], factors[1]
	return ck, nil
}

// Resume rewrites opts so a fresh run continues this checkpoint: the
// stored factors become the explicit initial factors, MaxIter drops by
// the completed iterations, and the stored identity fields are
// validated against the options — resuming under a different rank,
// seed, or solver would silently compute a different factorization.
func (ck *Checkpoint) Resume(opts Options) (Options, error) {
	m, n := ck.Meta.M, ck.Meta.N
	if ck.W == nil || ck.H == nil {
		return opts, fmt.Errorf("core: checkpoint has no factors")
	}
	if opts.K != 0 && opts.K != ck.Meta.K {
		return opts, fmt.Errorf("core: checkpoint rank k=%d, options ask k=%d", ck.Meta.K, opts.K)
	}
	if opts.Seed != ck.Meta.Seed {
		return opts, fmt.Errorf("core: checkpoint seed %d, options seed %d", ck.Meta.Seed, opts.Seed)
	}
	if got := opts.updaterName(); got != ck.Meta.Solver {
		return opts, fmt.Errorf("core: checkpoint solver %s, options solver %s", ck.Meta.Solver, got)
	}
	if ck.W.Rows != m || ck.W.Cols != ck.Meta.K || ck.H.Rows != ck.Meta.K || ck.H.Cols != n {
		return opts, fmt.Errorf("core: checkpoint factors %dx%d / %dx%d do not match header %dx%d k=%d",
			ck.W.Rows, ck.W.Cols, ck.H.Rows, ck.H.Cols, m, n, ck.Meta.K)
	}
	if opts.MaxIter <= 0 {
		opts.MaxIter = 30 // mirror withDefaults so the subtraction is well-defined
	}
	if ck.Meta.Iteration >= opts.MaxIter {
		return opts, fmt.Errorf("core: checkpoint already holds %d of %d iterations", ck.Meta.Iteration, opts.MaxIter)
	}
	opts.K = ck.Meta.K
	opts.InitW = ck.W
	opts.InitH = ck.H
	opts.MaxIter -= ck.Meta.Iteration
	opts.ckptBase = ck.Meta.Iteration
	opts.ckptRelErr = append([]float64(nil), ck.Meta.RelErr...)
	return opts, nil
}

// checkpointer drives the in-loop checkpoint schedule for one run. A
// nil checkpointer (checkpointing off) makes due always false.
type checkpointer struct {
	dir   string
	every int
	base  int            // iterations completed before this run (resume)
	meta  CheckpointMeta // Iteration/RelErr filled per write
}

// newCheckpointer returns the run's checkpointer, or nil when
// Options.CheckpointDir is empty. opts must be post-withDefaults.
func newCheckpointer(opts Options, algorithm string, m, n int) *checkpointer {
	if opts.CheckpointDir == "" {
		return nil
	}
	store.SweepTemps(opts.CheckpointDir, CheckpointFile)
	return &checkpointer{
		dir:   opts.CheckpointDir,
		every: opts.CheckpointEvery,
		base:  opts.ckptBase,
		meta: CheckpointMeta{
			Version:   CheckpointVersion,
			Algorithm: algorithm,
			M:         m, N: n, K: opts.K,
			Seed:   opts.Seed,
			Solver: opts.updaterName(),
		},
	}
}

// due reports whether a checkpoint is owed after completed iterations.
func (c *checkpointer) due(completed int) bool {
	return c != nil && completed%c.every == 0
}

// write commits one snapshot; hist is the whole error history, a
// resumed run's checkpointed entries included. The error fails the
// run: the checkpoint is the job's insurance, and a job that silently
// stops being restartable is worse than one that fails loudly.
func (c *checkpointer) write(completed int, hist []float64, w, h *mat.Dense) error {
	meta := c.meta
	meta.Iteration = c.base + completed
	meta.RelErr = hist
	if err := WriteCheckpoint(c.dir, &Checkpoint{Meta: meta, W: w, H: h}); err != nil {
		return fmt.Errorf("core: checkpoint at iteration %d failed: %w", completed, err)
	}
	return nil
}
