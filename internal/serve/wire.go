package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
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

// scanNumber parses the JSON number at b[i] — exactly
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? — in one pass and
// returns its value and the offset past it, or end -1 if b[i] starts
// no number. The digits are read as m·10^e with up to 19 significant
// digits in m. With |e| ≤ maxExp10 the value is one correctly rounded
// IEEE operation when m ≤ 2^53 (Clinger's fast path), and exactFloat's
// integer arithmetic otherwise; a longer significand or a farther
// exponent goes to strconv.ParseFloat, as in encoding/json. Either way
// the value is the correctly rounded one, so it is Float64bits-equal
// to encoding/json's, and what ParseFloat refuses (1e999) is an error.
func scanNumber(b []byte, i int) (float64, int, error) {
	start := i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	var m uint64
	nd, e := 0, 0 // significant digits read into m; m's decimal exponent
	if i < len(b) && b[i] == '0' {
		i++
	} else if i < len(b) && '1' <= b[i] && b[i] <= '9' {
		i, m, nd = readDigits(b, i, 0, 0)
	} else {
		return 0, -1, nil
	}
	if i < len(b) && b[i] == '.' {
		if i++; i == len(b) || b[i]-'0' > 9 {
			return 0, -1, nil
		}
		at := i
		i, m, nd = readDigits(b, i, m, nd)
		e = at - i
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		// x saturates where strconv's exponent does, so a number with
		// thousands of zeros and a matching exponent converts the same.
		x, at := 0, i
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			if x < 10000 {
				x = x*10 + int(b[i]-'0')
			}
		}
		if i == at {
			return 0, -1, nil
		}
		if b[at-1] == '-' {
			x = -x
		}
		e += x
	}
	var f float64
	switch {
	case nd == 0: // ±0 under any exponent
	case nd > 19 || e < -maxExp10 || e > maxExp10:
		v, err := strconv.ParseFloat(string(b[start:i]), 64)
		return v, i, err
	case m <= 1<<53 && e < 0:
		f = float64(m) / pow10[-e]
	case m <= 1<<53:
		f = float64(m) * pow10[e]
	default:
		f = exactFloat(m, e)
	}
	if neg {
		f = -f
	}
	return f, i, nil
}

// readDigits appends the digits at b[i] to m, counting the significant
// ones (those from the first nonzero digit on) in nd.
func readDigits(b []byte, i int, m uint64, nd int) (int, uint64, int) {
	if m == 0 {
		for i < len(b) && b[i] == '0' {
			i++
		}
	}
	at := i
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		m = m*10 + uint64(b[i]-'0')
	}
	return i, m, nd + i - at
}

// maxExp10 bounds the decimal exponents scanNumber converts itself:
// 10^k = 5^k·2^k is exact as a float64 while 5^k < 2^53, i.e. to k = 22.
const maxExp10 = 22

// pow5[k] = 5^k and pow10[k] = 10^k, both exact.
var pow5, pow10 = func() (p5 [maxExp10 + 1]uint64, p10 [maxExp10 + 1]float64) {
	p5[0], p10[0] = 1, 1
	for k := 1; k <= maxExp10; k++ {
		p5[k], p10[k] = 5*p5[k-1], 10*p10[k-1]
	}
	return p5, p10
}()

// exactFloat returns m·10^e rounded to nearest-even, for m > 2^53 and
// |e| ≤ maxExp10. 10^e = 5^e·2^e with 5^e < 2^52, so m·5^e is one
// 128-bit product, and m/5^-e one 128-by-64-bit division of m·2^s
// with s chosen for a quotient of at least 63 bits: either way x holds
// the leading bits of m·10^e = x·2^e2 exactly, and sticky records
// whether anything nonzero lies below them.
func exactFloat(m uint64, e int) float64 {
	var x uint64
	var e2 int
	var sticky bool
	if e >= 0 {
		hi, lo := bits.Mul64(m, pow5[e])
		s := bits.LeadingZeros64(hi)
		x, sticky, e2 = hi<<s|lo>>(64-s), lo<<s != 0, e+64-s
	} else {
		d := pow5[-e]
		s := 63 + bits.Len64(d) - bits.Len64(m)
		q, r := bits.Div64(m>>(64-s), m<<s, d)
		x, sticky, e2 = q, r != 0, e-s
	}
	s := bits.LeadingZeros64(x)
	x, e2 = x<<s, e2-s
	// Keep 53 of x's 64 bits and round on the other 11, ties to even.
	mant, rest := x>>11, x&(1<<11-1)
	if rest > 1<<10 || rest == 1<<10 && (sticky || mant&1 == 1) {
		mant++
	}
	// mant·2^(e2+11) with mant in [2^52, 2^53]: its leading bit adds 1 to
	// the exponent field, and a carry to 2^53 one more.
	return math.Float64frombits(uint64(e2+1085)<<52 + mant)
}

// decodeFloats is decodeArray over numbers. written is how many leading
// elements of s's backing array this body has written: a null past it
// stores the 0 that encoding/json's fresh memory would hold, so a pooled
// buffer never shows an earlier request's values. A number that
// strconv.ParseFloat refuses (1e999) is an error: no Inf gets through.
func decodeFloats(b []byte, i int, s []float64, written int) ([]float64, int, error) {
	return decodeArray(b, i, s, func(dst *float64, n, i int) (int, error) {
		v, end, err := scanNumber(b, i)
		if end < 0 {
			if !bytes.HasPrefix(b[i:], []byte("null")) {
				return 0, syntaxErr(b, i)
			}
			if n >= written {
				*dst = 0
			}
			return i + 4, nil
		}
		*dst = v
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
