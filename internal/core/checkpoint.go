package core

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
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
// is self-describing — a versioned JSON header with the iteration
// count, problem shape, seed (the run's entire RNG state: every random
// draw in a run is a pure function of it), and error history, followed
// by W and H in the mat binary format — so a separate process can pick
// the job up where it died. Because an alternating iteration is a
// deterministic function of (W, H) and the parallel drivers slice
// explicit initial factors exactly like generated ones, a resumed run
// recomputes the remaining iterations bitwise-identically to an
// uninterrupted one (pinned by TestResumeBitwiseIdentical).

// checkpointMagic identifies the checkpoint container format.
const checkpointMagic = "HPNMFCK1"

// CheckpointVersion covers the header schema and the arithmetic that
// wrote the factors: a resume is bitwise only when the kernels that
// continue a run round like the ones that began it. Version 2 is the
// fused multiply-add kernels; version 1 files (separate multiply and
// add) are refused with ErrCheckpointVersion rather than resumed onto
// a different trajectory.
const CheckpointVersion = 2

// ErrCheckpointVersion is wrapped by ReadCheckpoint when a checkpoint
// was written under another CheckpointVersion.
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
	err := store.ReplaceFile(dir, CheckpointFile, func(w io.Writer) error { return writeCheckpointTo(w, ck) })
	if err != nil {
		return fmt.Errorf("core: writing checkpoint: %w", err)
	}
	return nil
}

// sweepStaleCheckpointTemps removes checkpoint.bin.tmp-* litter left
// by a crash between temp-file creation and rename. Only the
// committed CheckpointFile is ever read, so the sweep is safe at any
// point; it runs when a checkpointing run starts.
func sweepStaleCheckpointTemps(dir string) {
	stale, err := filepath.Glob(filepath.Join(dir, CheckpointFile+".tmp-*"))
	if err != nil {
		return
	}
	for _, p := range stale {
		os.Remove(p)
	}
}

// writeCheckpointTo serializes magic, header length, JSON header, then
// both factors.
func writeCheckpointTo(w io.Writer, ck *Checkpoint) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(checkpointMagic); err != nil {
		return err
	}
	hdr, err := json.Marshal(ck.Meta)
	if err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(hdr))); err != nil {
		return err
	}
	if _, err := bw.Write(hdr); err != nil {
		return err
	}
	if err := ck.W.WriteBinary(bw); err != nil {
		return err
	}
	if err := ck.H.WriteBinary(bw); err != nil {
		return err
	}
	return bw.Flush()
}

// LoadCheckpoint reads dir/checkpoint.bin. Corrupt input — bad magic,
// an implausible header, truncated factors — yields an error, never a
// partial checkpoint.
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
	br := bufio.NewReader(r)
	magic := make([]byte, len(checkpointMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("core: checkpoint magic: %w", err)
	}
	if string(magic) != checkpointMagic {
		return nil, fmt.Errorf("core: bad checkpoint magic %q", magic)
	}
	var hdrLen uint32
	if err := binary.Read(br, binary.LittleEndian, &hdrLen); err != nil {
		return nil, fmt.Errorf("core: checkpoint header length: %w", err)
	}
	if hdrLen == 0 || hdrLen > 1<<24 {
		return nil, fmt.Errorf("core: implausible checkpoint header length %d", hdrLen)
	}
	hdr := make([]byte, hdrLen)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, fmt.Errorf("core: checkpoint header: %w", err)
	}
	ck := &Checkpoint{}
	var err error
	if err = json.Unmarshal(hdr, &ck.Meta); err != nil {
		return nil, fmt.Errorf("core: checkpoint header: %w", err)
	}
	if ck.Meta.Version != CheckpointVersion {
		return nil, fmt.Errorf("%w: file has version %d, this build reads %d", ErrCheckpointVersion, ck.Meta.Version, CheckpointVersion)
	}
	if ck.W, err = mat.ReadBinary(br); err != nil {
		return nil, fmt.Errorf("core: checkpoint W factor: %w", err)
	}
	if ck.H, err = mat.ReadBinary(br); err != nil {
		return nil, fmt.Errorf("core: checkpoint H factor: %w", err)
	}
	// The checkpoint owns the whole stream: bytes after the H factor
	// mean corruption (e.g. a torn rewrite landing on a longer old
	// file), not a bigger checkpoint. (mat.ReadBinary reads through
	// this same br — bufio.NewReader returns an existing *bufio.Reader
	// unchanged — so the probe sits exactly at the payload end.)
	if _, err := br.ReadByte(); err != io.EOF {
		if err != nil {
			return nil, fmt.Errorf("core: checking for end of checkpoint: %w", err)
		}
		return nil, fmt.Errorf("core: trailing data after checkpoint payload")
	}
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
	dir    string
	every  int
	base   int            // iterations completed before this run (resume)
	prefix []float64      // error history preceding this run (resume)
	meta   CheckpointMeta // Iteration/RelErr filled per write
}

// newCheckpointer returns the run's checkpointer, or nil when
// Options.CheckpointDir is empty. opts must be post-withDefaults.
func newCheckpointer(opts Options, algorithm string, m, n int) *checkpointer {
	if opts.CheckpointDir == "" {
		return nil
	}
	sweepStaleCheckpointTemps(opts.CheckpointDir)
	return &checkpointer{
		dir:    opts.CheckpointDir,
		every:  opts.CheckpointEvery,
		base:   opts.ckptBase,
		prefix: opts.ckptRelErr,
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

// write commits one snapshot. The error fails the run: the checkpoint
// is the job's insurance, and a job that silently stops being
// restartable is worse than one that fails loudly.
func (c *checkpointer) write(completed int, relErr []float64, w, h *mat.Dense) error {
	meta := c.meta
	meta.Iteration = c.base + completed
	meta.RelErr = append(append([]float64(nil), c.prefix...), relErr...)
	if err := WriteCheckpoint(c.dir, &Checkpoint{Meta: meta, W: w, H: h}); err != nil {
		return fmt.Errorf("core: checkpoint at iteration %d failed: %w", completed, err)
	}
	return nil
}
