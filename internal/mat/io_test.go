package mat

import (
	"bytes"
	"strings"
	"testing"
)

func TestBinaryRoundTrip(t *testing.T) {
	a := randomDense(13, 7, 21)
	var buf bytes.Buffer
	if err := a.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	b, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b, 0) {
		t.Fatal("binary round trip changed the matrix")
	}
}

func TestBinaryRejectsGarbage(t *testing.T) {
	if _, err := ReadBinary(strings.NewReader("notamatrix")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ReadBinary(strings.NewReader("")); err == nil {
		t.Fatal("empty input accepted")
	}
	// Truncated data section.
	a := randomDense(4, 4, 22)
	var buf bytes.Buffer
	if err := a.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-8]
	if _, err := ReadBinary(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated input accepted")
	}
}

func TestBinaryRoundTripEdgeShapes(t *testing.T) {
	for _, shape := range [][2]int{{0, 0}, {0, 5}, {5, 0}, {1, 1}, {1, 64}, {64, 1}} {
		a := randomDense(shape[0], shape[1], 24)
		var buf bytes.Buffer
		if err := a.WriteBinary(&buf); err != nil {
			t.Fatalf("%dx%d: %v", shape[0], shape[1], err)
		}
		b, err := ReadBinary(&buf)
		if err != nil {
			t.Fatalf("%dx%d: %v", shape[0], shape[1], err)
		}
		if b.Rows != shape[0] || b.Cols != shape[1] || !a.Equal(b, 0) {
			t.Fatalf("%dx%d did not round-trip", shape[0], shape[1])
		}
	}
}

func TestBinaryRejectsCorruptHeader(t *testing.T) {
	a := randomDense(4, 3, 25)
	var buf bytes.Buffer
	if err := a.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	// Flipped magic bytes.
	bad := append([]byte(nil), good...)
	bad[0] ^= 0xff
	if _, err := ReadBinary(bytes.NewReader(bad)); err == nil {
		t.Error("corrupt magic accepted")
	}

	// Negative dims (sign bit of the little-endian rows field).
	bad = append([]byte(nil), good...)
	bad[len(binaryMagic)+7] = 0x80
	if _, err := ReadBinary(bytes.NewReader(bad)); err == nil {
		t.Error("negative rows accepted")
	}

	// Implausibly huge dims: must fail on validation or on missing
	// payload, not attempt a multi-terabyte allocation.
	bad = append([]byte(nil), good...)
	for i := 0; i < 6; i++ {
		bad[len(binaryMagic)+i] = 0xff
	}
	if _, err := ReadBinary(bytes.NewReader(bad)); err == nil {
		t.Error("implausible dims accepted")
	}

	// Truncation inside the header itself (magic ok, dims cut short).
	if _, err := ReadBinary(bytes.NewReader(good[:len(binaryMagic)+4])); err == nil {
		t.Error("truncated header accepted")
	}
}

func TestBinaryRejectsOverflowDims(t *testing.T) {
	// Headers whose element count is plausible per-dimension but whose
	// product overflows: the validation must run in int64 (on 32-bit
	// platforms rows*cols in int would wrap to a small positive count
	// and truncate the read silently).
	a := randomDense(2, 2, 26)
	var buf bytes.Buffer
	if err := a.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	putDims := func(rows, cols uint64) []byte {
		b := append([]byte(nil), good...)
		for i := 0; i < 8; i++ {
			b[len(binaryMagic)+i] = byte(rows >> (8 * i))
			b[len(binaryMagic)+8+i] = byte(cols >> (8 * i))
		}
		return b
	}
	cases := []struct {
		name       string
		rows, cols uint64
	}{
		{"2^31 squared", 1 << 31, 1 << 31},
		{"2^62 x 4", 1 << 62, 4},
		{"just over 2^40", (1 << 40) / 3, 4},
	}
	for _, tc := range cases {
		if _, err := ReadBinary(bytes.NewReader(putDims(tc.rows, tc.cols))); err == nil ||
			!strings.Contains(err.Error(), "implausible") {
			t.Errorf("%s: err = %v, want implausible-dims rejection", tc.name, err)
		}
	}
}

// TestBinaryReadsEmbeddedMatrix: the reader accepts a matrix followed
// by more bytes, since checkpoints concatenate W and H in one stream.
func TestBinaryReadsEmbeddedMatrix(t *testing.T) {
	a := randomDense(5, 4, 27)
	var buf bytes.Buffer
	if err := a.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	two := append(append([]byte(nil), buf.Bytes()...), buf.Bytes()...)
	if got, err := ReadBinary(bytes.NewReader(two)); err != nil || !got.Equal(a, 0) {
		t.Fatalf("embedded read: %v", err)
	}
}
