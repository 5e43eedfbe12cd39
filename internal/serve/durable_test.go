package serve

// Tests for the durable-store seam: commit-on-fit, eviction faulting
// models back in, warm-start, the undurable-eviction warning, and the
// 503 contract for models mid-rehydration.

import (
	"bytes"
	"encoding/json"
	"errors"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"hpcnmf/internal/mat"
	mstore "hpcnmf/internal/store"
)

// tinyBudget is a store budget that fits exactly one 24×4 test model
// (modelBytes(24,4,32) ≈ 7.8 KiB), so adding a second always evicts.
const tinyBudget = 10 << 10

// newFSStore returns a filesystem store in a fresh temporary directory.
func newFSStore(t *testing.T) *mstore.FS {
	t.Helper()
	ds, err := mstore.NewFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestEvictionFaultsBackFromStore is the eviction + warm-start
// interplay pin: the LRU evicts a durable model, and the next
// projection against it faults it back in from the store instead of
// 404ing — eviction is no longer data loss.
func TestEvictionFaultsBackFromStore(t *testing.T) {
	ds := newFSStore(t)
	s := New(Options{Durable: ds, StoreBudget: tinyBudget})
	defer s.Close()
	if err := addModel(s, "victim", testBasis(24, 4, 1)); err != nil {
		t.Fatal(err)
	}
	// Project once so we can compare coefficients after rehydration.
	col := testColumn(24, 7)
	before, err := projectCol(s, "victim", col)
	if err != nil {
		t.Fatal(err)
	}
	wantH := append([]float64(nil), before.h...)
	putReq(before)

	// A second model blows the budget: "victim" is evicted.
	if err := addModel(s, "usurper", testBasis(24, 4, 2)); err != nil {
		t.Fatal(err)
	}
	if resident(s, "victim") {
		t.Fatal("victim still resident — budget did not evict")
	}
	if got := s.met.storeEvictions.Value(); got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
	if got := s.met.storeEvictionsUndurable.Value(); got != 0 {
		t.Fatalf("undurable evictions = %d, want 0 (model was committed)", got)
	}

	// The next projection faults it back in and answers identically.
	after, err := projectCol(s, "victim", col)
	if err != nil {
		t.Fatalf("project after eviction: %v", err)
	}
	defer putReq(after)
	if !resident(s, "victim") {
		t.Fatal("victim not resident after rehydration")
	}
	if got := s.met.storeRehydrations.Value(); got != 1 {
		t.Fatalf("rehydrations = %d, want 1", got)
	}
	if len(after.h) != len(wantH) {
		t.Fatalf("coefficients len %d, want %d", len(after.h), len(wantH))
	}
	for i := range wantH {
		if math.Float64bits(after.h[i]) != math.Float64bits(wantH[i]) {
			t.Fatalf("h[%d] = %v before eviction, %v after rehydration (not bitwise identical)", i, wantH[i], after.h[i])
		}
	}
}

// TestUndurableEvictionWarns pins the data-loss signal: with no
// durable store, evicting a model increments the undurable counter
// and logs a warning naming the model.
func TestUndurableEvictionWarns(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelWarn}))
	s := New(Options{StoreBudget: tinyBudget, Logger: logger})
	defer s.Close()
	if err := addModel(s, "doomed", testBasis(24, 4, 1)); err != nil {
		t.Fatal(err)
	}
	if err := addModel(s, "other", testBasis(24, 4, 2)); err != nil {
		t.Fatal(err)
	}
	if got := s.met.storeEvictionsUndurable.Value(); got != 1 {
		t.Fatalf("undurable evictions = %d, want 1", got)
	}
	logged := buf.String()
	if !strings.Contains(logged, "doomed") || !strings.Contains(logged, "no durable backing") {
		t.Fatalf("eviction warning missing or anonymous: %q", logged)
	}
	// And the projection against the lost model is a 404-style miss.
	if _, err := projectCol(s, "doomed", testColumn(24, 3)); !errors.Is(err, notFoundError{"doomed"}) {
		t.Fatalf("project(lost model) = %v, want notFoundError", err)
	}
}

// blockingStore wraps a ModelStore and parks Get until released, so a
// test can hold a model mid-rehydration.
type blockingStore struct {
	mstore.ModelStore
	enter   chan struct{} // closed... signaled when a Get arrives
	release chan struct{}
	once    sync.Once
}

func (b *blockingStore) Get(id string) (*mstore.Model, error) {
	b.once.Do(func() { close(b.enter) })
	<-b.release
	return b.ModelStore.Get(id)
}

// TestRehydrating503: while one request is faulting a model in, a
// concurrent request gets errRehydrating, which the HTTP layer maps
// to 503 + Retry-After — not 404, the model is not gone.
func TestRehydrating503(t *testing.T) {
	ds := newFSStore(t)
	bs := &blockingStore{ModelStore: ds, enter: make(chan struct{}), release: make(chan struct{})}
	s := New(Options{Durable: bs, WarmFilter: func(string) bool { return false }})
	defer s.Close()
	// Commit a model to the underlying store only (bypassing addModel,
	// which would also make it resident).
	if err := ds.Put(&mstore.Model{ID: "cold", W: testBasis(24, 4, 1)}); err != nil {
		t.Fatal(err)
	}

	firstDone := make(chan error, 1)
	go func() {
		r, err := projectCol(s, "cold", testColumn(24, 5))
		if err == nil {
			putReq(r)
		}
		firstDone <- err
	}()
	<-bs.enter // the first request is now parked inside the store Get

	// A concurrent projection must see the rehydration in progress.
	ts := httptest.NewServer(s)
	defer ts.Close()
	body, _ := json.Marshal(ProjectRequest{Model: "cold", Column: testColumn(24, 6)})
	resp, err := http.Post(ts.URL+"/v1/project", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("project mid-rehydration = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 mid-rehydration carries no Retry-After")
	}

	close(bs.release)
	if err := <-firstDone; err != nil {
		t.Fatalf("rehydrating request failed: %v", err)
	}
	// Once resident, requests serve normally.
	resp2, err := http.Post(ts.URL+"/v1/project", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("project after rehydration = %d, want 200", resp2.StatusCode)
	}
}

// TestWarmStartScan: a fresh server over a populated store serves its
// whole catalog immediately, minus entries the filter rejects and
// minus quarantined corruption.
func TestWarmStartScan(t *testing.T) {
	ds := newFSStore(t)
	for _, id := range []string{"a", "b", "skip-me"} {
		if err := ds.Put(&mstore.Model{ID: id, W: testBasis(24, 4, int64(len(id)))}); err != nil {
			t.Fatal(err)
		}
	}
	s := New(Options{
		Durable:    ds,
		WarmFilter: func(id string) bool { return !strings.HasPrefix(id, "skip-") },
	})
	defer s.Close()
	if !resident(s, "a") || !resident(s, "b") {
		t.Fatalf("warm start missed committed models: %v", s.Models())
	}
	if resident(s, "skip-me") {
		t.Fatal("warm start ignored the filter")
	}
	if got := s.met.storeWarmStarts.Value(); got != 2 {
		t.Fatalf("warm_starts = %d, want 2", got)
	}
	// The filtered model still faults in on demand.
	r, err := projectCol(s, "skip-me", testColumn(24, 9))
	if err != nil {
		t.Fatalf("project(filtered model): %v", err)
	}
	putReq(r)
	if !resident(s, "skip-me") {
		t.Fatal("filtered model did not fault in on demand")
	}
}

// TestFitCommitsDurably: the async fit path writes through to the
// durable store before the job reports done, and the durable copy
// matches the resident one bitwise.
func TestFitCommitsDurably(t *testing.T) {
	ds := newFSStore(t)
	s := New(Options{Durable: ds})
	defer s.Close()
	spec := FitRequest{Model: "fitted", Rows: 12, Cols: 8, K: 2, MaxIter: 10, Seed: 42}
	spec.Data = make([]float64, spec.Rows*spec.Cols)
	for i := range spec.Data {
		spec.Data[i] = float64(i%7) + 0.5
	}
	id, err := s.jobs.submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitForJob(t, s, id)
	dm, err := ds.Get("fitted")
	if err != nil {
		t.Fatalf("fit did not commit to the durable store: %v", err)
	}
	var resident *mat.Dense
	if err := s.st.withModel("fitted", func(m *model) error { resident = m.w.Clone(); return nil }); err != nil {
		t.Fatal(err)
	}
	if dm.W.Rows != resident.Rows || dm.W.Cols != resident.Cols {
		t.Fatalf("durable basis %dx%d, resident %dx%d", dm.W.Rows, dm.W.Cols, resident.Rows, resident.Cols)
	}
	for i := range resident.Data {
		if math.Float64bits(dm.W.Data[i]) != math.Float64bits(resident.Data[i]) {
			t.Fatalf("durable and resident bases differ at %d", i)
		}
	}
	if got := s.met.storeCommits.Value(); got != 1 {
		t.Fatalf("commits = %d, want 1", got)
	}
}

// TestDeleteRemovesDurable: DELETE removes both copies, so the model
// cannot resurrect through warm-start or fault-in.
func TestDeleteRemovesDurable(t *testing.T) {
	ds := newFSStore(t)
	s := New(Options{Durable: ds})
	if err := addModel(s, "gone", testBasis(24, 4, 1)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/models/gone", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("DELETE = %d, want 204", resp.StatusCode)
	}
	if _, err := ds.Get("gone"); !errors.Is(err, mstore.ErrNotFound) {
		t.Fatalf("durable entry survived DELETE: %v", err)
	}
	ts.Close()
	s.Close()
	// A restart over the same store must not resurrect it.
	s2 := New(Options{Durable: ds})
	defer s2.Close()
	if resident(s2, "gone") {
		t.Fatal("deleted model resurrected on warm-start")
	}
}

// waitForJob polls a fit job to its terminal state.
func waitForJob(t *testing.T, s *Server, id string) {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for {
		info, ok := s.jobs.get(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		switch info.State {
		case JobDone:
			return
		case JobFailed:
			t.Fatalf("job failed: %s", info.Error)
		}
		select {
		case <-deadline:
			t.Fatalf("job %s did not finish", id)
		case <-time.After(2 * time.Millisecond):
		}
	}
}
