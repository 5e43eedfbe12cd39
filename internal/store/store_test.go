package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"hpcnmf/internal/mat"
)

// testModel builds a deterministic model with recognizable contents.
func testModel(id string, m, k int) *Model {
	w := mat.NewDense(m, k)
	for i := range w.Data {
		w.Data[i] = float64(i)*0.25 + float64(len(id))
	}
	return &Model{
		ID:         id,
		W:          w,
		Fitted:     time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC),
		RelErr:     0.125,
		Iterations: 30,
	}
}

func sameModel(t *testing.T, got, want *Model) {
	t.Helper()
	if got.ID != want.ID {
		t.Fatalf("id = %q, want %q", got.ID, want.ID)
	}
	if got.W.Rows != want.W.Rows || got.W.Cols != want.W.Cols {
		t.Fatalf("basis %dx%d, want %dx%d", got.W.Rows, got.W.Cols, want.W.Rows, want.W.Cols)
	}
	for i := range want.W.Data {
		if math.Float64bits(got.W.Data[i]) != math.Float64bits(want.W.Data[i]) {
			t.Fatalf("basis[%d] = %v, want %v (not bitwise identical)", i, got.W.Data[i], want.W.Data[i])
		}
	}
	if !got.Fitted.Equal(want.Fitted) || got.RelErr != want.RelErr || got.Iterations != want.Iterations {
		t.Fatalf("provenance %v/%v/%d, want %v/%v/%d",
			got.Fitted, got.RelErr, got.Iterations, want.Fitted, want.RelErr, want.Iterations)
	}
}

// backends runs a subtest against the filesystem ModelStore.
func backends(t *testing.T, fn func(t *testing.T, s ModelStore)) {
	t.Run("fs", func(t *testing.T) {
		s, err := NewFS(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		fn(t, s)
	})
}

func TestPutGetRoundTrip(t *testing.T) {
	backends(t, func(t *testing.T, s ModelStore) {
		want := testModel("alpha", 7, 3)
		if err := s.Put(want); err != nil {
			t.Fatal(err)
		}
		// Mutating the caller's copy must not reach the store.
		want.W.Data[0] = -999
		got, err := s.Get("alpha")
		if err != nil {
			t.Fatal(err)
		}
		want.W.Data[0] = 0.25*0 + float64(len("alpha"))
		sameModel(t, got, want)
		// And mutating a Get result must not poison later Gets.
		got.W.Data[1] = -777
		again, err := s.Get("alpha")
		if err != nil {
			t.Fatal(err)
		}
		sameModel(t, again, want)
	})
}

func TestGetMissing(t *testing.T) {
	backends(t, func(t *testing.T, s ModelStore) {
		if _, err := s.Get("nope"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("Get(missing) = %v, want ErrNotFound", err)
		}
	})
}

func TestPutReplaces(t *testing.T) {
	backends(t, func(t *testing.T, s ModelStore) {
		if err := s.Put(testModel("m", 4, 2)); err != nil {
			t.Fatal(err)
		}
		want := testModel("m", 6, 3)
		want.Iterations = 99
		if err := s.Put(want); err != nil {
			t.Fatal(err)
		}
		got, err := s.Get("m")
		if err != nil {
			t.Fatal(err)
		}
		sameModel(t, got, want)
	})
}

func TestListAndDelete(t *testing.T) {
	backends(t, func(t *testing.T, s ModelStore) {
		for _, id := range []string{"zeta", "alpha", "mid"} {
			if err := s.Put(testModel(id, 3, 2)); err != nil {
				t.Fatal(err)
			}
		}
		ids, err := s.List()
		if err != nil {
			t.Fatal(err)
		}
		want := []string{"alpha", "mid", "zeta"}
		if fmt.Sprint(ids) != fmt.Sprint(want) {
			t.Fatalf("List = %v, want %v", ids, want)
		}
		if err := s.Delete("mid"); err != nil {
			t.Fatal(err)
		}
		if err := s.Delete("mid"); !errors.Is(err, ErrNotFound) {
			t.Fatalf("second Delete = %v, want ErrNotFound", err)
		}
		ids, err = s.List()
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(ids) != fmt.Sprint([]string{"alpha", "zeta"}) {
			t.Fatalf("List after delete = %v", ids)
		}
	})
}

// TestHostileIDs: model ids are arbitrary strings; none of them may
// escape the store directory or collide.
func TestHostileIDs(t *testing.T) {
	backends(t, func(t *testing.T, s ModelStore) {
		ids := []string{"../escape", "a/b", "a\\b", ".", "..", "A", "a", "dots..", "sp ace", "uni-ωλ"}
		for _, id := range ids {
			if err := s.Put(testModel(id, 2, 2)); err != nil {
				t.Fatalf("Put(%q): %v", id, err)
			}
		}
		for _, id := range ids {
			got, err := s.Get(id)
			if err != nil {
				t.Fatalf("Get(%q): %v", id, err)
			}
			if got.ID != id {
				t.Fatalf("Get(%q) returned id %q", id, got.ID)
			}
		}
		listed, err := s.List()
		if err != nil {
			t.Fatal(err)
		}
		if len(listed) != len(ids) {
			t.Fatalf("List has %d ids, want %d: %v", len(listed), len(ids), listed)
		}
	})
}

func TestEmptyIDRejected(t *testing.T) {
	backends(t, func(t *testing.T, s ModelStore) {
		if err := s.Put(testModel("", 2, 2)); err == nil {
			t.Fatal("Put with empty id succeeded")
		}
	})
}

func TestConcurrentPutGet(t *testing.T) {
	backends(t, func(t *testing.T, s ModelStore) {
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				id := fmt.Sprintf("m%d", g%4) // contend on 4 ids
				for i := 0; i < 20; i++ {
					if err := s.Put(testModel(id, 3, 2)); err != nil {
						t.Errorf("Put: %v", err)
						return
					}
					if _, err := s.Get(id); err != nil {
						t.Errorf("Get: %v", err)
						return
					}
				}
			}(g)
		}
		wg.Wait()
	})
}

func TestBlobRoundTripBytes(t *testing.T) {
	want := testModel("blob", 5, 4)
	b1, err := EncodeModel(want)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := EncodeModel(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("EncodeModel is not deterministic")
	}
	got, err := DecodeModel(b1)
	if err != nil {
		t.Fatal(err)
	}
	sameModel(t, got, want)
}

// TestEncodeModelBytesPinned pins the blob bytes of one fixed model to
// the SHA-256 the HPNMFM01 writer produced before it moved onto the
// shared container codec: every model a store holds stays readable,
// and BlobVersion stays 1.
func TestEncodeModelBytesPinned(t *testing.T) {
	w := mat.NewDense(5, 3)
	w.InitAddressed(11, 0, 0)
	blob, err := EncodeModel(&Model{
		ID:         "pinned",
		W:          w,
		Fitted:     time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC),
		RelErr:     0.125,
		Iterations: 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	const want = "c1a72743981dc6b8f4537c9a8c577dceaf21384881bcd59983063e8ec442abfd"
	if sum := sha256.Sum256(blob); hex.EncodeToString(sum[:]) != want {
		t.Fatalf("EncodeModel wrote %d bytes with SHA-256 %x, want %s", len(blob), sum, want)
	}
}
