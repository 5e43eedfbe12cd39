// Package store is the durable model store behind the serving layer's
// resident LRU: fitted models (basis W plus provenance) are committed
// as CRC-guarded versioned blobs so they survive process restarts, and
// cold instances warm-start by scanning the manifest. The package is a
// seam, not a database — one small interface (ModelStore) with one
// backend, a filesystem store whose writes follow the checkpoint
// durability discipline (same-directory temp file, fsync, atomic
// rename, parent-directory fsync); tests wrap it to stall a read. Entries that fail validation on read are
// quarantined — renamed aside, never silently served and never
// blocking the rest of the manifest. The blob format is the package's
// CRC-32C container (container.go), which core's checkpoints use too,
// committed through the same ReplaceFile, and ooc's tile files.
package store

import (
	"errors"
	"fmt"
	"time"

	"hpcnmf/internal/mat"
)

// ErrNotFound reports a model id with no committed entry.
var ErrNotFound = errors.New("store: model not found")

// CorruptError reports a committed entry that failed validation (bad
// magic, implausible header, CRC mismatch, truncation). The filesystem
// backend quarantines the entry when it returns this.
type CorruptError struct {
	ID     string
	Reason error
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("store: model %q is corrupt: %v", e.ID, e.Reason)
}

func (e *CorruptError) Unwrap() error { return e.Reason }

// Model is the durable unit: one fitted basis with its provenance.
// The W matrix in a Model returned by Get is owned by the caller.
type Model struct {
	ID         string
	W          *mat.Dense // m×k basis
	Fitted     time.Time
	RelErr     float64
	Iterations int
}

// ModelStore is the durability seam behind the serving layer. Put is a
// commit: when it returns nil the model must survive a crash of the
// calling process (for backends with real durability). Implementations
// must be safe for concurrent use, including multiple processes
// sharing one filesystem store.
type ModelStore interface {
	// Put durably commits the model, replacing any previous entry with
	// the same id. The model (including W) is copied: the caller may
	// mutate it afterwards.
	Put(m *Model) error
	// Get returns the committed model, ErrNotFound when absent, or a
	// *CorruptError when the entry exists but fails validation.
	Get(id string) (*Model, error)
	// List returns the ids of every committed entry, sorted.
	List() ([]string, error)
	// Delete removes the entry; ErrNotFound when absent.
	Delete(id string) error
}
