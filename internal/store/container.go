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

// A container is the one on-disk frame for factor matrices. Model
// blobs (one block) and checkpoints (two blocks) are both containers:
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
// a different trajectory.

// maxHeader bounds the JSON header so a corrupt length field cannot
// force a huge allocation.
const maxHeader = 1 << 24

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrChecksum is wrapped by DecodeContainer when a container's CRC-32C
// does not match its bytes.
var ErrChecksum = errors.New("store: container CRC-32C mismatch")

// WriteContainer writes one container: magic, the JSON encoding of
// header, then blocks, then the CRC of all of it, computed as the
// bytes stream out.
func WriteContainer(w io.Writer, magic string, header any, blocks ...*mat.Dense) error {
	hdr, err := json.Marshal(header)
	if err != nil {
		return err
	}
	crc := crc32.New(crcTable)
	cw := io.MultiWriter(w, crc)
	if _, err := cw.Write(append(binary.LittleEndian.AppendUint32([]byte(magic), uint32(len(hdr))), hdr...)); err != nil {
		return err
	}
	for _, b := range blocks {
		if err := b.WriteBinary(cw); err != nil {
			return err
		}
	}
	_, err = w.Write(binary.LittleEndian.AppendUint32(nil, crc.Sum32()))
	return err
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
	if len(data) < len(magic)+4 || string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("store: not a %s container", magic)
	}
	hdrLen := binary.LittleEndian.Uint32(data[len(magic):])
	rest := data[len(magic)+4:]
	if hdrLen == 0 || hdrLen > maxHeader || int64(hdrLen) > int64(len(rest)) {
		return nil, fmt.Errorf("store: implausible %s header length %d", magic, hdrLen)
	}
	if err := json.Unmarshal(rest[:hdrLen], header); err != nil {
		return nil, fmt.Errorf("store: %s header: %w", magic, err)
	}
	if err := check(); err != nil {
		return nil, err
	}
	body := rest[hdrLen:]
	if len(body) < 4 {
		return nil, fmt.Errorf("store: %s container ends before its CRC", magic)
	}
	payload, tail := data[:len(data)-4], data[len(data)-4:]
	if got, want := crc32.Checksum(payload, crcTable), binary.LittleEndian.Uint32(tail); got != want {
		return nil, fmt.Errorf("%w in %s container (got %08x, want %08x)", ErrChecksum, magic, got, want)
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
