package store

import (
	"bytes"
	"fmt"
	"time"
)

// A model blob is the one-block container (see container.go): magic
// "HPNMFM01", a blobHeader with the id and provenance, and the basis W.

// blobMagic identifies the durable model container format.
const blobMagic = "HPNMFM01"

// BlobVersion is the current blob header schema version.
const BlobVersion = 1

// blobHeader is the versioned JSON header inside a model blob.
type blobHeader struct {
	Version    int       `json:"version"`
	ID         string    `json:"id"`
	Fitted     time.Time `json:"fitted,omitempty"`
	RelErr     float64   `json:"rel_err,omitempty"`
	Iterations int       `json:"iterations,omitempty"`
}

// EncodeModel serializes a model into the blob format. The model is
// not retained: the returned bytes are an independent snapshot.
func EncodeModel(m *Model) ([]byte, error) {
	if m == nil || m.W == nil {
		return nil, fmt.Errorf("store: encoding model with no basis")
	}
	if m.ID == "" {
		return nil, fmt.Errorf("store: encoding model with empty id")
	}
	var buf bytes.Buffer
	// The basis dominates; 256 bytes covers the framing and a header
	// with a short id, so the buffer is allocated once.
	buf.Grow(256 + len(m.ID) + 8*len(m.W.Data))
	err := WriteContainer(&buf, blobMagic, blobHeader{
		Version:    BlobVersion,
		ID:         m.ID,
		Fitted:     m.Fitted,
		RelErr:     m.RelErr,
		Iterations: m.Iterations,
	}, m.W)
	if err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeModel parses a blob written by EncodeModel. Any deviation —
// short file, bad magic, implausible header, CRC mismatch, trailing
// bytes — is an error, never a partial model.
func DecodeModel(data []byte) (*Model, error) {
	var hdr blobHeader
	blocks, err := DecodeContainer(data, blobMagic, &hdr, func() error {
		if hdr.Version != BlobVersion {
			return fmt.Errorf("store: blob version %d, this build reads %d", hdr.Version, BlobVersion)
		}
		if hdr.ID == "" {
			return fmt.Errorf("store: blob has empty model id")
		}
		return nil
	}, 1)
	if err != nil {
		return nil, err
	}
	return &Model{
		ID:         hdr.ID,
		W:          blocks[0],
		Fitted:     hdr.Fitted,
		RelErr:     hdr.RelErr,
		Iterations: hdr.Iterations,
	}, nil
}
