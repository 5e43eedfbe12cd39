package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// MaxBodyBytes caps a request body on every route that reads one: the
// decoder holds a body whole, so this bounds what one request can make
// an instance buffer (the benchmark's largest, a 5184×240 fit, is 23 MB).
const MaxBodyBytes = 32 << 20

// ReadBody reads a request body whole. On failure it answers the
// request itself — 413 past MaxBodyBytes, else 400 — and reports false.
func ReadBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	var buf bytes.Buffer
	if n := r.ContentLength; n > 0 && n <= MaxBodyBytes {
		buf.Grow(int(n) + bytes.MinRead) // ReadFrom then never regrows
	}
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, MaxBodyBytes)); err != nil {
		code := http.StatusBadRequest
		if tooLarge := (*http.MaxBytesError)(nil); errors.As(err, &tooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		httpError(w, code, fmt.Errorf("reading request body: %w", err))
		return nil, false
	}
	return buf.Bytes(), true
}

// The wire format has one decoder. It walks a body's top-level object
// once: a float array under a name the route claims is parsed here,
// number by number, into its destination; every other member goes to
// encoding/json as the raw text {key:value}, so key matching, scalars,
// null, unknown and nested fields are the standard library's semantics
// because they are its code. This file owns the text between members,
// where a value ends, and the arrays — and accepts there what
// json.NewDecoder(body).Decode accepts, with the same values: one JSON
// value is decoded, bytes after it are not read.

func syntaxErr(b []byte, i int) error {
	if i >= len(b) {
		return io.ErrUnexpectedEOF
	}
	return fmt.Errorf("invalid character %q at offset %d", b[i], i)
}

func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// skipValue returns the offset past the value at b[i], looking only at
// strings (the first unescaped quote closes one) and bracket depth; a
// scalar runs to the next delimiter. For valid JSON that is the value's
// extent, and whoever uses the span validates it.
func skipValue(b []byte, i int) (int, error) {
	depth := 0
	for ; i < len(b); i++ {
		switch b[i] {
		case '"':
			for i++; i < len(b) && b[i] != '"'; i++ {
				if b[i] == '\\' {
					i++
				}
			}
		case '{', '[':
			depth++
			continue
		case '}', ']':
			if depth--; depth < 0 {
				return i, nil // the enclosing bracket ended a scalar
			}
		case ',', ' ', '\t', '\n', '\r':
			if depth == 0 {
				return i, nil
			}
			continue
		default:
			continue
		}
		if depth == 0 && i < len(b) {
			return i + 1, nil
		}
	}
	if depth > 0 {
		return 0, io.ErrUnexpectedEOF
	}
	return len(b), nil // a scalar, or an unclosed string, ran to the end
}

// keyIs reports whether a raw key (quotes included) names field as
// encoding/json matches keys: unquoted, then under simple case folding.
func keyIs(raw []byte, field string) bool {
	var name string
	return json.Unmarshal(raw, &name) == nil && strings.EqualFold(name, field)
}

// eachMember walks the top-level object of b, calling member with each
// raw key and the offset of its value; member returns the offset past
// the value.
func eachMember(b []byte, member func(key []byte, i int) (int, error)) error {
	i := skipSpace(b, 0)
	if i >= len(b) || b[i] != '{' {
		return syntaxErr(b, i)
	}
	if i = skipSpace(b, i+1); i < len(b) && b[i] == '}' {
		return nil
	}
	for {
		if i >= len(b) || b[i] != '"' {
			return syntaxErr(b, i)
		}
		ke, err := skipValue(b, i)
		if err != nil {
			return err
		}
		key := b[i:ke]
		if i = skipSpace(b, ke); i >= len(b) || b[i] != ':' {
			return syntaxErr(b, i)
		}
		if i, err = member(key, skipSpace(b, i+1)); err != nil {
			return err
		}
		if i = skipSpace(b, i); i < len(b) && b[i] == '}' {
			return nil
		}
		if i >= len(b) || b[i] != ',' {
			return syntaxErr(b, i)
		}
		i = skipSpace(b, i+1)
	}
}

// PeekModel returns the "model" string of a request body without
// parsing the rest: it skips from key to key by bracket depth and stops
// at the first "model" holding a string. "" means there is none before
// the body stops making sense; the serving layer then answers its 400.
func PeekModel(body []byte) string {
	var model string
	eachMember(body, func(key []byte, i int) (int, error) {
		end, err := skipValue(body, i)
		if err == nil && end > i && body[i] == '"' && keyIs(key, "model") &&
			json.Unmarshal(body[i:end], &model) == nil && model != "" {
			err = io.EOF // found: stop the walk
		}
		return end, err
	})
	return model
}

// decodeRequest decodes body into dst, a *ProjectRequest or *FitRequest.
// array is offered every member whose value opens with '[': it parses
// the ones it claims and returns the offset past them, or 0 to leave
// the member to encoding/json like any other.
func decodeRequest(body []byte, dst any, array func(key []byte, i int) (int, error)) error {
	i := skipSpace(body, 0)
	if i == len(body) {
		return io.EOF
	}
	if bytes.HasPrefix(body[i:], []byte("null")) {
		return nil // as Decode: a null body is accepted and changes nothing
	}
	return eachMember(body, func(key []byte, i int) (int, error) {
		if i < len(body) && body[i] == '[' {
			if end, err := array(key, i); end != 0 || err != nil {
				return end, err
			}
		}
		end, err := skipValue(body, i)
		if err != nil {
			return 0, err
		}
		member := make([]byte, 0, len(key)+end-i+3)
		member = append(append(append(append(member, '{'), key...), ':'), body[i:end]...)
		return end, json.Unmarshal(append(member, '}'), dst)
	})
}

// decodeArray decodes the array opening at b[i] onto s by encoding/json's
// rules for an existing slice: elem decodes element n in place at s[n]
// (so what a null leaves there is what was there) and returns the
// offset past it, growth keeps the whole backing array, and an empty
// array yields a fresh empty slice.
func decodeArray[T any](b []byte, i int, s []T, elem func(dst *T, n, i int) (int, error)) ([]T, int, error) {
	if i = skipSpace(b, i+1); i < len(b) && b[i] == ']' {
		return []T{}, i + 1, nil
	}
	for n := 0; ; n++ {
		if n == cap(s) {
			s = append(s[:n], *new(T))
		}
		s = s[:n+1]
		var err error
		if i, err = elem(&s[n], n, i); err != nil {
			return nil, 0, err
		}
		if i = skipSpace(b, i); i < len(b) && b[i] == ']' {
			return s, i + 1, nil
		}
		if i >= len(b) || b[i] != ',' {
			return nil, 0, syntaxErr(b, i)
		}
		i = skipSpace(b, i+1)
	}
}

// scanNumber returns the offset past the JSON number at b[i] — exactly
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? — or -1.
func scanNumber(b []byte, i int) int {
	digits := func() bool {
		start := i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i > start
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i < len(b) && b[i] == '0' {
		i++
	} else if !digits() {
		return -1
	}
	if i < len(b) && b[i] == '.' {
		if i++; !digits() {
			return -1
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			return -1
		}
	}
	return i
}

// decodeFloats is decodeArray over numbers. written is how many leading
// elements of s's backing array this body has written: a null past it
// stores the 0 that encoding/json's fresh memory would hold, so a pooled
// buffer never shows an earlier request's values. A number that
// strconv.ParseFloat refuses (1e999) is an error: no Inf gets through.
func decodeFloats(b []byte, i int, s []float64, written int) ([]float64, int, error) {
	return decodeArray(b, i, s, func(dst *float64, n, i int) (int, error) {
		end := scanNumber(b, i)
		if end < 0 {
			if !bytes.HasPrefix(b[i:], []byte("null")) {
				return 0, syntaxErr(b, i)
			}
			if n >= written {
				*dst = 0
			}
			return i + 4, nil
		}
		var err error
		*dst, err = strconv.ParseFloat(string(b[i:end]), 64)
		return end, err
	})
}

// decodeProject decodes a /v1/project body. "column" lands in col's
// backing array (a pooled carrier's buffer), which req.Column then
// aliases; "columns" in fresh slices.
func decodeProject(body []byte, req *ProjectRequest, col []float64) error {
	written := 0
	return decodeRequest(body, req, func(key []byte, i int) (end int, err error) {
		switch {
		case keyIs(key, "column"):
			if req.Column == nil {
				req.Column, written = col[:0], 0
			}
			req.Column, end, err = decodeFloats(body, i, req.Column, written)
			written = max(written, len(req.Column))
		case keyIs(key, "columns"):
			req.Columns, end, err = decodeArray(body, i, req.Columns, func(c *[]float64, _, i int) (end int, err error) {
				if i < len(body) && body[i] == '[' {
					*c, end, err = decodeFloats(body, i, *c, cap(*c))
				} else if end, err = skipValue(body, i); err == nil {
					err = json.Unmarshal(body[i:end], c) // null, or a type error
				}
				return end, err
			})
		}
		return end, err
	})
}

// decodeFit decodes a /v1/fit body. When rows and cols precede data, as
// in a body encoding/json marshalled, data is allocated once at
// rows·cols — never more elements than the body has bytes for.
func decodeFit(body []byte, req *FitRequest) error {
	return decodeRequest(body, req, func(key []byte, i int) (end int, err error) {
		if !keyIs(key, "data") {
			return 0, nil
		}
		if r, c := req.Rows, req.Cols; req.Data == nil && r > 0 && c > 0 && c <= len(body)/2/r {
			req.Data = make([]float64, 0, r*c)
		}
		req.Data, end, err = decodeFloats(body, i, req.Data, cap(req.Data))
		return end, err
	})
}
