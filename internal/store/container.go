package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"hpcnmf/internal/mat"
)

// A container is the one on-disk frame for matrices. Model blobs (one
// block), checkpoints (two blocks) and out-of-core tile files (one
// block, streamed) are all containers:
//
//	magic                          8 bytes, names the kind
//	uint32 LE header length
//	JSON header                    versioned, owned by the caller
//	n blocks                       mat binary format (HPNMFD01)
//	uint32 LE CRC-32C              over every preceding byte
//
// The trailing CRC (Castagnoli polynomial, hardware-accelerated on
// amd64/arm64) turns every torn or bit-flipped write into a loud
// decode error instead of silently wrong factors: a server would
// project against garbage coefficients, a resumed run would continue
// a different trajectory, a streamed fit would factorize another
// matrix.

// maxHeader bounds the JSON header so a corrupt length field cannot
// force a huge allocation.
const maxHeader = 1 << 24

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrChecksum is wrapped by DecodeContainer and CheckCRC when a
// container's CRC-32C does not match its bytes.
var ErrChecksum = errors.New("store: container CRC-32C mismatch")

// StartContainer writes the front of one container to w — magic, then
// the JSON encoding of header with its length — and returns the writer
// its blocks go through, which keeps the running CRC-32C, and the
// function that appends that CRC. WriteContainer and the out-of-core
// tile writer both stream through it, so no container is held whole.
func StartContainer(w io.Writer, magic string, header any) (io.Writer, func() error, error) {
	hdr, err := json.Marshal(header)
	if err != nil {
		return nil, nil, err
	}
	crc := crc32.New(crcTable)
	cw := io.MultiWriter(w, crc)
	if _, err := cw.Write(append(binary.LittleEndian.AppendUint32([]byte(magic), uint32(len(hdr))), hdr...)); err != nil {
		return nil, nil, err
	}
	return cw, func() error {
		_, err := w.Write(binary.LittleEndian.AppendUint32(nil, crc.Sum32()))
		return err
	}, nil
}

// WriteContainer writes one container: magic, the JSON encoding of
// header, then blocks, then the CRC of all of it.
func WriteContainer(w io.Writer, magic string, header any, blocks ...*mat.Dense) error {
	cw, finish, err := StartContainer(w, magic, header)
	if err != nil {
		return err
	}
	for _, b := range blocks {
		if err := b.WriteBinary(cw); err != nil {
			return err
		}
	}
	return finish()
}

// ParseHeader parses the front of a container from b, which holds at
// least that much of one: the magic, the header length and the JSON
// header, unmarshalled into header. It returns the front's length —
// the offset of the first block. DecodeContainer parses a whole
// container this way; a reader that streams one parses a prefix.
func ParseHeader(b []byte, magic string, header any) (int, error) {
	if len(b) < len(magic)+4 || string(b[:len(magic)]) != magic {
		return 0, fmt.Errorf("store: not a %s container", magic)
	}
	hdrLen := binary.LittleEndian.Uint32(b[len(magic):])
	rest := b[len(magic)+4:]
	if hdrLen == 0 || hdrLen > maxHeader || int64(hdrLen) > int64(len(rest)) {
		return 0, fmt.Errorf("store: implausible %s header length %d", magic, hdrLen)
	}
	if err := json.Unmarshal(rest[:hdrLen], header); err != nil {
		return 0, fmt.Errorf("store: %s header: %w", magic, err)
	}
	return len(magic) + 4 + int(hdrLen), nil
}

// CheckCRC streams the size bytes of a container from r through a
// small buffer and returns an error wrapping ErrChecksum unless its
// last 4 bytes are the CRC-32C of the ones before. DecodeContainer
// checks a container it holds whole this way too.
func CheckCRC(r io.ReaderAt, size int64, magic string) error {
	crc := crc32.New(crcTable)
	var tail [4]byte
	if _, err := io.CopyBuffer(crc, io.NewSectionReader(r, 0, size-4), make([]byte, min(size, 256<<10))); err != nil {
		return err
	}
	if _, err := r.ReadAt(tail[:], size-4); err != nil {
		return err
	}
	if got, want := crc.Sum32(), binary.LittleEndian.Uint32(tail[:]); got != want {
		return fmt.Errorf("%w in %s container (got %08x, want %08x)", ErrChecksum, magic, got, want)
	}
	return nil
}

// DecodeContainer parses a container written by WriteContainer with
// the same magic and returns its n blocks. It checks, in order: the
// magic, the header length, the JSON header (unmarshalled into header),
// check, the CRC, the blocks, and that the blocks end exactly at the
// CRC. check sees the header before the CRC is compared, so a reader
// refuses a file of another version — which may predate the CRC —
// with its own error; no factor byte is parsed before the CRC holds.
// Any deviation is an error, never a partial result.
func DecodeContainer(data []byte, magic string, header any, check func() error, n int) ([]*mat.Dense, error) {
	off, err := ParseHeader(data, magic, header)
	if err != nil {
		return nil, err
	}
	if err := check(); err != nil {
		return nil, err
	}
	body := data[off:]
	if len(body) < 4 {
		return nil, fmt.Errorf("store: %s container ends before its CRC", magic)
	}
	if err := CheckCRC(bytes.NewReader(data), int64(len(data)), magic); err != nil {
		return nil, err
	}
	// One buffered reader for every block: mat.ReadBinary reuses it, so
	// each block starts where the previous one ended.
	br := bufio.NewReader(bytes.NewReader(body[:len(body)-4]))
	blocks := make([]*mat.Dense, n)
	for i := range blocks {
		var err error
		if blocks[i], err = mat.ReadBinary(br); err != nil {
			return nil, fmt.Errorf("store: %s block %d: %w", magic, i, err)
		}
	}
	// The blocks own the whole CRC-covered payload: a trailing byte
	// means a writer that disagrees with this reader, not a bigger file.
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("store: trailing data after %s blocks", magic)
	}
	return blocks, nil
}
