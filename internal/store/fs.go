package store

import (
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// FS is the filesystem ModelStore: one blob file per model under a
// flat directory, committed with the checkpoint durability discipline
// — stage in a same-directory temp file, fsync the file, atomic
// rename over the target, fsync the parent directory — so a Put that
// returned nil survives a crash at any instant, and readers only ever
// see complete old or complete new bytes. Several processes may share
// one directory (the sharded serving cluster does): rename is the
// only commit operation, so concurrent writers of the same id settle
// on one complete winner.
//
// Layout: <dir>/<hex(id)>.model. Hex-encoding the id makes any model
// id filesystem-safe (separators, dots, case-only collisions) and
// keeps the manifest a pure directory scan. Entries that fail decode
// are quarantined as <hex(id)>.corrupt — kept for post-mortem, hidden
// from List and Get.
type FS struct {
	dir string
}

const (
	modelExt     = ".model"
	corruptExt   = ".corrupt"
	tmpInfix     = ".tmp-"
	maxModelName = 255 // common filesystem NAME_MAX
)

// NewFS opens (creating if needed) a filesystem store rooted at dir
// and sweeps temp litter left by crashed writers.
func NewFS(dir string) (*FS, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: opening %s: %w", dir, err)
	}
	SweepTemps(dir, "*"+modelExt)
	return &FS{dir: dir}, nil
}

// SweepTemps removes the <name>.tmp-* files ReplaceFile staged in dir
// for every name matching the glob pattern, left behind by writers
// that crashed before their rename. Only committed files are ever
// read, so the sweep is safe while other processes are mid-write:
// CreateTemp names are unique, and a writer whose temp vanishes fails
// loudly at rename rather than committing garbage.
func SweepTemps(dir, pattern string) {
	stale, _ := filepath.Glob(filepath.Join(dir, pattern+tmpInfix+"*"))
	for _, p := range stale {
		os.Remove(p)
	}
}

// fileName maps a model id to its blob file name.
func fileName(id string) (string, error) {
	name := hex.EncodeToString([]byte(id)) + modelExt
	if len(name) > maxModelName {
		return "", fmt.Errorf("store: model id %q is too long for a filesystem entry", id)
	}
	return name, nil
}

// idFromFile inverts fileName; ok is false for names that are not
// committed blob entries (temps, quarantined files, foreign files).
func idFromFile(name string) (string, bool) {
	if !strings.HasSuffix(name, modelExt) || strings.Contains(name, tmpInfix) {
		return "", false
	}
	raw, err := hex.DecodeString(strings.TrimSuffix(name, modelExt))
	if err != nil || len(raw) == 0 {
		return "", false
	}
	return string(raw), true
}

// Put durably commits the model.
func (s *FS) Put(m *Model) error {
	blob, err := EncodeModel(m)
	if err != nil {
		return err
	}
	name, err := fileName(m.ID)
	if err != nil {
		return err
	}
	err = ReplaceFile(s.dir, name, func(w io.Writer) error {
		_, err := w.Write(blob)
		return err
	})
	if err != nil {
		return fmt.Errorf("store: committing %q: %w", m.ID, err)
	}
	return nil
}

// ReplaceFile durably replaces dir/name with the bytes write produces:
// they are staged in a same-directory temp file named <name>.tmp-*,
// the file is fsynced and renamed over the target, and the directory
// is fsynced. Readers see the old complete file or the new complete
// file, never a torn one, and a nil return survives a crash. The temp
// file is removed on every failure path; a crash can still leave one
// behind, which is why the names are fixed — SweepTemps finds them.
func ReplaceFile(dir, name string, write func(io.Writer) error) error {
	tmp, err := os.CreateTemp(dir, name+tmpInfix)
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, name)); err != nil {
		return err
	}
	// The rename is only durable once the directory entry is on disk;
	// without this a crash can roll back a commit the caller was
	// already told succeeded.
	return SyncDir(dir)
}

// Get reads and validates the committed entry. A corrupt entry is
// quarantined (renamed aside) and reported as *CorruptError; the next
// Get of the same id sees ErrNotFound.
func (s *FS) Get(id string) (*Model, error) {
	name, err := fileName(id)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(s.dir, name)
	blob, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, ErrNotFound
		}
		return nil, fmt.Errorf("store: reading %q: %w", id, err)
	}
	m, err := DecodeModel(blob)
	if err != nil {
		s.quarantine(path)
		return nil, &CorruptError{ID: id, Reason: err}
	}
	if m.ID != id {
		// The filename says one id, the header another: the blob was
		// copied or tampered with. Trust neither.
		s.quarantine(path)
		return nil, &CorruptError{ID: id, Reason: fmt.Errorf("blob header claims id %q", m.ID)}
	}
	return m, nil
}

// quarantine moves a failed entry aside so it stops shadowing the id
// but stays available for post-mortem. Best-effort: if the rename
// fails (or raced a concurrent re-Put of a good blob) the entry is
// left in place and the next reader re-validates.
func (s *FS) quarantine(path string) {
	os.Rename(path, strings.TrimSuffix(path, modelExt)+corruptExt)
	SyncDir(s.dir)
}

// List scans the directory for committed entries, sorted by id. Temps,
// quarantined entries, and foreign files are skipped.
func (s *FS) List() ([]string, error) {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("store: listing: %w", err)
	}
	var ids []string
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		if id, ok := idFromFile(e.Name()); ok {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids, nil
}

// Delete removes the committed entry durably.
func (s *FS) Delete(id string) error {
	name, err := fileName(id)
	if err != nil {
		return err
	}
	if err := os.Remove(filepath.Join(s.dir, name)); err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return ErrNotFound
		}
		return fmt.Errorf("store: deleting %q: %w", id, err)
	}
	return SyncDir(s.dir)
}

// SyncDir fsyncs a directory so a just-created, just-renamed or
// just-removed entry survives a crash. Filesystems that cannot sync
// directory handles (and all of Windows) make this a no-op: the rename
// is still atomic there, just not guaranteed durable.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return nil
	}
	return cerr
}
