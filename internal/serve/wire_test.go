package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// The oracle for the wire decoder is what the handlers used to call:
// json.NewDecoder(body).Decode. Every body below, and every body the
// fuzzers invent, must get the same accept/reject decision from both
// and, when accepted, the same request: Float64bits-equal numbers and
// the same nil-versus-empty slices (a nil "column" is "no column", an
// empty one is a zero-row column).

func oracle(body []byte, dst any) error {
	return json.NewDecoder(bytes.NewReader(body)).Decode(dst)
}

func sameFloats(a, b []float64) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// staleBuffer is a pooled carrier's buffer after an earlier request:
// full of values that must never show through.
func staleBuffer() []float64 {
	buf := make([]float64, 64)
	for i := range buf {
		buf[i] = 777
	}
	return buf
}

func checkProjectDecode(t *testing.T, body []byte) {
	t.Helper()
	var want, got ProjectRequest
	wantErr, gotErr := oracle(body, &want), decodeProject(body, &got, staleBuffer())
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("body %q: encoding/json says %v, decoder says %v", body, wantErr, gotErr)
	}
	if wantErr != nil {
		return
	}
	ok := want.Model == got.Model && sameFloats(want.Column, got.Column) &&
		(want.Columns == nil) == (got.Columns == nil) && len(want.Columns) == len(got.Columns)
	for i := 0; ok && i < len(want.Columns); i++ {
		ok = sameFloats(want.Columns[i], got.Columns[i])
	}
	if !ok {
		t.Fatalf("body %q:\n encoding/json %#v\n decoder       %#v", body, want, got)
	}
}

func checkFitDecode(t *testing.T, body []byte) {
	t.Helper()
	var want, got FitRequest
	wantErr, gotErr := oracle(body, &want), decodeFit(body, &got)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("body %q: encoding/json says %v, decoder says %v", body, wantErr, gotErr)
	}
	if wantErr != nil {
		return
	}
	wd, gd := want.Data, got.Data
	want.Data, got.Data = nil, nil
	if !sameFloats(wd, gd) || fmt.Sprintf("%#v", want) != fmt.Sprintf("%#v", got) ||
		math.Float64bits(want.Tol) != math.Float64bits(got.Tol) {
		t.Fatalf("body %q:\n encoding/json %#v data %v\n decoder       %#v data %v", body, want, wd, got, gd)
	}
}

// wireBodies is the differential table; <A> stands for the route's
// array field ("column" or "data") so both decoders see every shape.
var wireBodies = []string{
	// Canonical, and what a client could reasonably send.
	`{"model":"m","<A>":[1,2.5,-3e2],"rows":1,"cols":3,"k":2}`,
	`{"rows":2,"cols":2,"<A>":[1,2,3,4],"model":"late","k":1,"tol":1e-9,"seed":18446744073709551615}`,
	"\t{ \"model\" :\r\n \"m\" , \"<A>\" : [ 1 ,\n2\t] }  ",
	`{"model":"m","columns":[[1,2],[3,4]]}`,
	`{"model":"m","<A>":[1],"columns":[[2],[3]]}`,
	// Keys: case folding (incl. the Kelvin sign and long s), escapes,
	// duplicates (last wins), unknown and nested fields.
	`{"MODEL":"m","<a>":[1]}`, `{"Model":"m","<Á>":[1]}`,
	`{"\u006dodel":"m","\u0063olumn":[1],"d\u0061ta":[2],"\u0043OLUMNS":[[3]]}`,
	"{\"model\":\"m\",\"\u212A\":3,\"\u017Folver\":\"hals\",\"\u017Fweep\u017F\":4}",
	`{"model":"a","model":"b","<A>":[1,2,3],"<A>":[4]}`,
	`{"<A>":[1,2,3,4],"<A>":[9],"<A>":[null,null,null]}`,
	`{"<A>":[1,2],"<A>":null,"<A>":[null]}`, `{"<A>":[1,2],"<A>":[],"<A>":[null,null]}`,
	`{"columns":[[1,2],[3]],"columns":[[null,null,null]],"columns":[[4],[null,null],[null]]}`,
	`{"columns":[[1,2]],"columns":[null],"columns":[[null,null]]}`,
	`{"model":"m","extra":{"<A>":[1,{"x":"]}"}]},"more":[[],{}],"<A>":[7]}`,
	`{"model":"m","<A>x":[1,"two"],"":[3]}`,
	// null and empty: arrays, elements, scalars, the whole body.
	`{"model":"m","<A>":null}`, `{"model":"m","<A>":[]}`, `{"model":"m","<A>":[ ]}`,
	`{"model":"m","<A>":[null]}`, `{"model":"m","<A>":[1,null,3]}`,
	`{"model":"m","columns":null}`, `{"model":"m","columns":[]}`, `{"model":"m","columns":[null,[1],[]]}`,
	`{"model":null,"rows":null,"<A>":[1]}`, `null`, ` null `, `null0`, `nullify`, `{}`, `{ }`,
	// Numbers the grammar allows …
	`{"<A>":[-0,0,-0.0,0e0,1E5,1e+5,1e-5,1.5E-3,123456789012345678901234567890,0.1,1e-999,4.9e-324,1.7976931348623157e308]}`,
	`{"<A>":[9007199254740993,9007199254740995,18014398509481983,9999999999999999999,12345678901234567890,0.12345678901234568]}`,
	`{"<A>":[1e22,1e23,3e23,1e-23,1234567890123456789e22,-1234567890123456789e-22,0.00000000000000000000000000,0e999999]}`,
	// … and everything it does not, or that overflows.
	`{"<A>":[01]}`, `{"<A>":[+1]}`, `{"<A>":[.5]}`, `{"<A>":[1.]}`, `{"<A>":[1.e2]}`, `{"<A>":[1e]}`, `{"<A>":[1e+]}`,
	`{"<A>":[-]}`, `{"<A>":[--1]}`, `{"<A>":[NaN]}`, `{"<A>":[Infinity]}`, `{"<A>":[-Infinity]}`, `{"<A>":[0x10]}`,
	`{"<A>":[1e999]}`, `{"<A>":[-1e999]}`, `{"<A>":[1.8e308]}`, `{"<A>":[1_000]}`, `{"<A>":[1 2]}`, `{"<A>":[nullx]}`, `{"<A>":[nul]}`,
	// Wrong types where floats belong.
	`{"<A>":["1"]}`, `{"<A>":[true]}`, `{"<A>":[[1]]}`, `{"<A>":[{}]}`, `{"<A>":5}`, `{"<A>":"x"}`, `{"<A>":{}}`,
	`{"columns":[1]}`, `{"columns":[[1],2]}`, `{"columns":[["1"]]}`, `{"columns":{"0":[1]}}`,
	`{"model":5}`, `{"rows":"2"}`, `{"rows":2.5}`, `{"k":1e2}`, `{"seed":-1}`,
	// Ragged columns are the decoder's to accept; the handler's shape
	// check refuses them.
	`{"model":"m","columns":[[1,2,3],[4],[]]}`,
	// Malformed structure and truncation at every kind of place.
	``, ` `, `{`, `{"`, `{"model`, `{"model"`, `{"model":`, `{"model":"m`, `{"model":"m"`, `{"model":"m",`, `{"model":"m",}`,
	`{"<A>":[`, `{"<A>":[1`, `{"<A>":[1,`, `{"<A>":[1,]`, `{"<A>":[,1]}`, `{"<A>":[1,,2]}`, `{"<A>":[1]`, `{"<A>":[1]]}`, `{"<A>":[1}`,
	`{"columns":[[1]`, `{"columns":[[1],]}`, `{"columns":[[1]]`, `{,}`, `{"a" 1}`, `{"a":1 "b":2}`, `{"a":}`, `{a:1}`, `{'a':1}`,
	`[1,2]`, `"model"`, `12`, `true`, `nul`, `}`, `]`, `,`, "\ufeff{}", "{\"model\":\"a\nb\"}", "{\"mod\x01el\":1}", "{\"model\":\"\xff\"}",
	`{"model":"\ud800"}`, `{"model":"\uZZZZ"}`, `{"model":"\q"}`, `{"model":"m"}{"model":"n"}`,
	// Bytes after the closing brace: pinned — json.NewDecoder(...).Decode
	// stops at the brace, so anything after it is accepted unread.
	`{"model":"m","<A>":[1]} trailing garbage`, `{"model":"m"}]`, `{"model":"m"},`,
}

// The table's placeholders, filled in for each route.
var (
	projectBodies = strings.NewReplacer("<A>", "column", "<a>", "COLUMN", "<Á>", "Column")
	fitBodies     = strings.NewReplacer("<A>", "data", "<a>", "DATA", "<Á>", "Data")
)

func TestDecodeAgreesWithEncodingJSON(t *testing.T) {
	for _, tmpl := range wireBodies {
		checkProjectDecode(t, []byte(projectBodies.Replace(tmpl)))
		checkFitDecode(t, []byte(fitBodies.Replace(tmpl)))
	}
	// The table must exercise both verdicts, or it proves nothing.
	var req ProjectRequest
	if decodeProject([]byte(`{"column":[1e999]}`), &req, nil) == nil {
		t.Fatal("1e999 was accepted: an Inf could reach a solver")
	}
	if err := decodeProject([]byte(`{"model":"m","column":[1,2]}garbage`), &req, nil); err != nil || len(req.Column) != 2 {
		t.Fatalf("canonical body with trailing bytes: %v %v", req, err)
	}
}

// TestDecodeFitAllocatesOnce: rows and cols ahead of data size the
// slice exactly; a lying pair cannot make it larger than the body.
func TestDecodeFitAllocatesOnce(t *testing.T) {
	var req FitRequest
	if err := decodeFit([]byte(`{"rows":2,"cols":3,"data":[1,2,3,4,5,6]}`), &req); err != nil || cap(req.Data) != 6 {
		t.Fatalf("hinted decode: cap %d err %v, want cap 6", cap(req.Data), err)
	}
	req = FitRequest{}
	if err := decodeFit([]byte(`{"rows":1000000,"cols":1000000,"data":[1]}`), &req); err != nil || cap(req.Data) > 8 {
		t.Fatalf("lying rows/cols: cap %d err %v, want a small slice", cap(req.Data), err)
	}
}

func FuzzProjectDecode(f *testing.F) {
	for _, tmpl := range wireBodies {
		f.Add([]byte(projectBodies.Replace(tmpl)))
	}
	f.Fuzz(func(t *testing.T, body []byte) { checkProjectDecode(t, body) })
}

func FuzzFitDecode(f *testing.F) {
	for _, tmpl := range wireBodies {
		f.Add([]byte(fitBodies.Replace(tmpl)))
	}
	f.Fuzz(func(t *testing.T, body []byte) { checkFitDecode(t, body) })
}

// checkScanNumber holds scanNumber to two oracles: the JSON number
// grammar as encoding/json's own scanner (json.Valid) draws it, and
// strconv.ParseFloat for the value. The number ends where its longest
// prefix that is a JSON number ends — unless the next byte opens a
// fraction or an exponent with no digit after it, which breaks the
// literal (end -1), as encoding/json refuses "1." and "1e+".
func checkScanNumber(t *testing.T, s string) {
	t.Helper()
	isDigit := func(c byte) bool { return '0' <= c && c <= '9' }
	want := -1
	for j := 1; j <= len(s); j++ {
		if (s[0] == '-' || isDigit(s[0])) && isDigit(s[j-1]) && json.Valid([]byte(s[:j])) {
			want = j
		}
	}
	if want > 0 && want < len(s) && json.Valid([]byte(s[:want+1]+"0")) {
		want = -1
	}
	v, end, err := scanNumber([]byte("["+s), 1) // at an offset, as in an array
	if end != want+1 && !(want < 0 && end < 0) {
		t.Fatalf("%q: scanNumber ends at %d, want %d", s, end-1, want)
	}
	if want < 0 {
		return
	}
	wv, werr := strconv.ParseFloat(s[:want], 64)
	if (err == nil) != (werr == nil) || err == nil && math.Float64bits(v) != math.Float64bits(wv) {
		t.Fatalf("%q: scanNumber = %v (%#x) err %v, strconv.ParseFloat = %v (%#x) err %v",
			s[:want], v, math.Float64bits(v), err, wv, math.Float64bits(wv), werr)
	}
}

// numberCases seeds the number-level oracle: ties at 2^53+1 either
// way, a carry out of 53 bits, 19-digit significands at e = ±22 (the
// exact integer path's ends), 20 digits (strconv's), exponents just
// past the exact powers of ten (1e23 is not exact in binary, and 3e23
// and 1e-23 round differently through its nearest float64), a zero
// under far exponents, and the grammar's refusals.
var numberCases = []string{
	"0", "-0", "1", "-1", "0.1", "0.5", "1E+2", "1e-2", "-1.5E-3", "123.456e7", "0.12345678901234568",
	"9007199254740992", "9007199254740993", "9007199254740995", "-9007199254740993", "9.007199254740993e15",
	"90071992547409930e-1", "9007199254740993000e-3", "18014398509481983", "9999999999999999999",
	"1234567890123456789e22", "1234567890123456789e-22", "9999999999999999999e22", "1000000000000000001e-22",
	"0.1234567890123456789", "12345678901234567890", "1.2345678901234567890e22", "100000000000000000000",
	"1" + strings.Repeat("0", 64), "0." + strings.Repeat("0", 26), "0." + strings.Repeat("0", 26) + "1",
	"1e22", "1e23", "3e23", "1e-22", "1e-23", "7e-23", "0e999999", "-0e-999999", "0.0e99999999999999999999",
	"1e999", "-1e999", "1.8e308", "1.7976931348623157e308", "4.9e-324", "2.2250738585072011e-308", "1e-999",
	"", "-", "+1", ".5", "01", "-01", "00", "1.", "1.e5", "1e", "1e+", "1e+x", "1.5.2", "1e5e5", "1ee5",
	"NaN", "Infinity", "-Infinity", "0x10", "1_000", " 1", "1 ", "1,2", "-a", "12]",
}

func TestScanNumber(t *testing.T) {
	for _, s := range numberCases {
		checkScanNumber(t, s)
	}
}

func FuzzScanNumber(f *testing.F) {
	for _, s := range numberCases {
		f.Add(s)
	}
	f.Fuzz(checkScanNumber)
}

func TestPeekModel(t *testing.T) {
	big := strings.Repeat("0.123456789,", 9000) + "1" // ≈ 100 KB of numbers
	for _, tc := range []struct{ name, body, want string }{
		{"model first", `{"model":"bg","column":[` + big + `]}`, "bg"},
		{"model after a 100 KB array", `{"column":[` + big + `],"model":"bg"}`, "bg"},
		{"model after nested values and tricky strings", `{"a":{"model":"no","b":["]}",{"c":"\""}]},"s":"}\\","model":"yes"}`, "yes"},
		{"escaped model string", `{"model":"b\u0067\n\"x"}`, "bg\n\"x"},
		{"escaped and folded key", `{"\u004dODEL":"bg"}`, "bg"},
		{"whitespace", " {\n\t\"model\" : \"bg\" } ", "bg"},
		{"first string wins", `{"model":null,"model":"a","model":"b"}`, "a"},
		{"body broken after the model", `{"model":"bg","column":[1,,`, "bg"},
		{"missing model", `{"column":[1,2]}`, ""},
		{"empty model", `{"model":""}`, ""},
		{"model is not a string", `{"model":5}`, ""},
		{"broken before the model", `{"column":[1,2,"model":"bg"}`, ""},
		{"unquoted key", `{model:"bg"}`, ""},
		{"bad escape in the model", `{"model":"\q"}`, ""},
		{"truncated", `{"model":"b`, ""},
		{"not an object", `["model","bg"]`, ""},
		{"empty", ``, ""},
	} {
		if got := PeekModel([]byte(tc.body)); got != tc.want {
			t.Errorf("%s: PeekModel = %q, want %q", tc.name, got, tc.want)
		}
	}
}

// gibibyte supplies up to 1 GiB of a never-ending JSON body and counts
// what was taken from it.
type gibibyte struct {
	head  string
	taken int64
}

var ones = strings.Repeat("1,", 1<<15)

func (g *gibibyte) Read(p []byte) (int, error) {
	if g.taken >= 1<<30 {
		return 0, io.EOF
	}
	n := copy(p, g.head[min(g.taken, int64(len(g.head))):])
	for n < len(p) {
		n += copy(p[n:], ones) // a cut "1" runs into the next "1,": still a number
	}
	g.taken += int64(n)
	return n, nil
}

// overCapProbe posts a 1 GiB chunked body to h and checks it was
// refused with a 413 after at most cap + 1 bytes were read and O(cap)
// bytes allocated (a doubling buffer: under 4 × cap, plus change).
func overCapProbe(t *testing.T, h http.Handler, path, head string) {
	t.Helper()
	body := &gibibyte{head: head}
	req := httptest.NewRequest(http.MethodPost, path, body)
	req.ContentLength = -1
	rw := httptest.NewRecorder()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h.ServeHTTP(rw, req)
	runtime.ReadMemStats(&after)
	if rw.Code != http.StatusRequestEntityTooLarge || !strings.Contains(rw.Body.String(), "request body too large") {
		t.Errorf("%s: status %d body %s, want a 413 naming the cause", path, rw.Code, rw.Body)
	}
	if body.taken > MaxBodyBytes+1 {
		t.Errorf("%s: read %d bytes of the body, want at most the cap + 1 = %d", path, body.taken, MaxBodyBytes+1)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 5*MaxBodyBytes && !raceEnabled {
		t.Errorf("%s: allocated %d MiB refusing the body, want O(cap = %d MiB)", path, got>>20, MaxBodyBytes>>20)
	}
}

func TestOverCapBodyRefused(t *testing.T) {
	s := newTestServer(t, Options{})
	overCapProbe(t, s, "/v1/project", `{"model":"m1","column":[`)
	overCapProbe(t, s, "/v1/fit", `{"model":"big","rows":1,"cols":1,"k":1,"data":[`)
	// Exactly at the cap is read whole and gets the decoder's verdict.
	atCap := bytes.Repeat([]byte(" "), MaxBodyBytes)
	copy(atCap, `{"model":"m1"}`)
	rw := httptest.NewRecorder()
	s.ServeHTTP(rw, httptest.NewRequest(http.MethodPost, "/v1/project", bytes.NewReader(atCap)))
	if rw.Code != http.StatusBadRequest || !strings.Contains(rw.Body.String(), "no columns") {
		t.Errorf("body of exactly the cap: status %d %s, want the usual 400", rw.Code, rw.Body)
	}
}

// BenchmarkDecodeProject times one 5184-row single-column body — the
// benchmark fleet's request — through the wire decoder into a warm
// carrier buffer, next to the encoding/json call it replaced and the
// router's peek. Its numbers are shortest-form floats in [0, 1): about
// two thirds take scanNumber's one-division fast path, and the third
// whose significand passes 2^53 its exact integer path. On a 2-vCPU
// Xeon "wire" runs 0.27–0.35 ms a body (≈ 60 ns a number), against
// 0.78–1.05 ms when every number went to strconv.ParseFloat.
func BenchmarkDecodeProject(b *testing.B) {
	body, err := json.Marshal(ProjectRequest{Model: "bg", Column: testColumn(5184, 1)})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("wire", func(b *testing.B) {
		buf := make([]float64, 0, 5184)
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var req ProjectRequest
			if err := decodeProject(body, &req, buf); err != nil || len(req.Column) != 5184 {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var req ProjectRequest
			if err := oracle(body, &req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("peek", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if PeekModel(body) != "bg" {
				b.Fatal("peek missed the model")
			}
		}
	})
}
