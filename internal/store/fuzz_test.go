package store

import (
	"bytes"
	"testing"

	"hpcnmf/internal/mat"
)

// ContainerCodec decodes one kind of container for CheckContainer:
// it returns the container's blocks and a function that encodes the
// decoded value again.
type ContainerCodec func(data []byte) (blocks []*mat.Dense, reencode func() ([]byte, error), err error)

// CheckContainer is the body every container fuzz target shares
// (FuzzModelBlob, FuzzModelBlobMutations, and FuzzCheckpoint in the
// external test package). Decoding must never panic or allocate
// unboundedly. An accepted input must hold blocks whose dims agree
// with their data, and re-encoding it must be a fixed point: the
// re-encoded bytes decode and re-encode to themselves, so the accepted
// set is exactly the codec's own image, modulo JSON field order. When
// base is non-nil, data is a mutation of base and must be refused
// unless it is base byte for byte: the CRC catches what the framing
// does not.
func CheckContainer(t *testing.T, data, base []byte, decode ContainerCodec) {
	t.Helper()
	blocks, reencode, err := decode(data)
	if err != nil {
		return
	}
	if base != nil && !bytes.Equal(data, base) {
		t.Fatal("mutated container decoded without error")
	}
	for i, b := range blocks {
		if b == nil || len(b.Data) != b.Rows*b.Cols {
			t.Fatalf("decoder returned an inconsistent block %d", i)
		}
	}
	re, err := reencode()
	if err != nil {
		t.Fatalf("re-encoding an accepted container failed: %v", err)
	}
	_, reencode, err = decode(re)
	if err != nil {
		t.Fatalf("re-encoded container does not decode: %v", err)
	}
	if again, err := reencode(); err != nil || !bytes.Equal(again, re) {
		t.Fatalf("round trip changed the container (err %v)", err)
	}
}

// decodeModel is the model blob's ContainerCodec; it also requires an
// accepted model to carry an id.
func decodeModel(t *testing.T) ContainerCodec {
	return func(data []byte) ([]*mat.Dense, func() ([]byte, error), error) {
		m, err := DecodeModel(data)
		if err != nil {
			return nil, nil, err
		}
		if m.ID == "" {
			t.Fatalf("decoder accepted a model with no id: %+v", m)
		}
		return []*mat.Dense{m.W}, func() ([]byte, error) { return EncodeModel(m) }, nil
	}
}

// FuzzModelBlob throws arbitrary bytes at the blob decoder.
func FuzzModelBlob(f *testing.F) {
	// Seed with valid blobs of a few shapes plus near-misses.
	for _, mk := range [][2]int{{1, 1}, {3, 2}, {8, 5}} {
		m := testModel("seed", mk[0], mk[1])
		blob, err := EncodeModel(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
		// CRC-valid but truncated payload region.
		f.Add(blob[:len(blob)-5])
		// Flip one header byte.
		bad := append([]byte(nil), blob...)
		bad[9] ^= 0xff
		f.Add(bad)
	}
	f.Add([]byte(blobMagic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		CheckContainer(t, data, nil, decodeModel(t))
	})
}

// FuzzModelBlobMutations mutates a known-good blob at one position:
// the decoder must refuse it.
func FuzzModelBlobMutations(f *testing.F) {
	base, err := EncodeModel(testModel("mut", 4, 3))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(0, byte(0xff))
	f.Add(len(base)/2, byte(0x01))
	f.Add(len(base)-1, byte(0x80))
	f.Fuzz(func(t *testing.T, pos int, x byte) {
		CheckContainer(t, Mutate(base, pos, x), base, decodeModel(t))
	})
}

// Mutate returns a copy of base with x XORed into the byte at pos
// (taken modulo len(base)).
func Mutate(base []byte, pos int, x byte) []byte {
	data := append([]byte(nil), base...)
	if len(data) > 0 {
		p := pos % len(data)
		if p < 0 {
			p += len(data)
		}
		data[p] ^= x
	}
	return data
}

// TestDecodeRejectsOversizeHeaderClaim pins the allocation bound: a
// header length field larger than the input cannot make the decoder
// allocate or read past the buffer.
func TestDecodeRejectsOversizeHeaderClaim(t *testing.T) {
	blob, err := EncodeModel(&Model{ID: "x", W: mat.NewDense(1, 1)})
	if err != nil {
		t.Fatal(err)
	}
	// Overwrite the header-length field (bytes 8..11) with huge values.
	for _, v := range []uint32{0, maxHeader + 1, 1<<32 - 1} {
		bad := append([]byte(nil), blob...)
		bad[8] = byte(v)
		bad[9] = byte(v >> 8)
		bad[10] = byte(v >> 16)
		bad[11] = byte(v >> 24)
		if _, err := DecodeModel(bad); err == nil {
			t.Fatalf("header length %d accepted", v)
		}
	}
}
