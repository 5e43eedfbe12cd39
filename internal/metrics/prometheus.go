package metrics

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"regexp"
	"runtime"
	"strconv"
	"strings"
)

// Prometheus text exposition (format version 0.0.4, OpenMetrics
// compatible): every instrument renders as HELP/TYPE comments followed
// by samples, families sorted by name so consecutive scrapes and
// golden tests are byte-stable for stable instrument values.
//
// Histograms need care at the exponential-bucket boundaries: the
// registry's buckets are (lo·r^(i−1), lo·r^i] — inclusive upper bound,
// exactly Prometheus's `le` semantics — but bucketOf clamps
// out-of-range samples into the last bucket, so that bucket's count is
// NOT "≤ its upper bound" and may only be surfaced under le="+Inf".
// Finite boundaries therefore stop short of the clamp bucket, and the
// 192-bucket ladder is coarsened to one boundary per two doublings so
// a scrape stays a few dozen series per histogram instead of ~200.

// promStride picks every promStride-th bucket boundary (8 buckets =
// two doublings at 4 buckets per doubling).
const promStride = 8

// promFiniteMax is the largest bucket index exposed as a finite `le`
// boundary. Everything above — including the clamp bucket — is only
// counted under le="+Inf".
const promFiniteMax = histBuckets - promStride - 1 // 183

// bucketsSnapshot copies count, sum, and the raw bucket array under
// one lock acquisition.
func (h *Histogram) bucketsSnapshot() (count int64, sum float64, buckets [histBuckets]int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count, h.sum, h.buckets
}

// promNameRe matches a legal Prometheus metric name.
var promNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// promName sanitizes a registry instrument name ("mpi.rank.0.words")
// into a legal Prometheus metric name (dots and other illegal runes
// become underscores; a leading digit gains an underscore prefix).
func promName(name string) string {
	var b strings.Builder
	b.Grow(len(name) + 1)
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(r >= '0' && r <= '9' && i > 0)
		if r >= '0' && r <= '9' && i == 0 {
			b.WriteByte('_')
			b.WriteRune(r)
			continue
		}
		if ok {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promFloat renders a sample value; Prometheus spells infinities
// "+Inf"/"-Inf".
func promFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// promHelp escapes a HELP text (backslash and newline per the spec).
func promHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// WritePrometheus renders every instrument in the Prometheus text
// exposition format, families sorted by exposed name. Counter families
// gain the conventional _total suffix.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	hists := make(map[string]*Histogram, len(r.histograms))
	for k, v := range r.histograms {
		hists[k] = v
	}
	r.mu.Unlock()

	bw := bufio.NewWriter(w)
	for _, name := range sortedKeys(counters) {
		exp := promName(name)
		if !strings.HasSuffix(exp, "_total") {
			exp += "_total"
		}
		fmt.Fprintf(bw, "# HELP %s hpcnmf counter %s\n", exp, promHelp(name))
		fmt.Fprintf(bw, "# TYPE %s counter\n", exp)
		fmt.Fprintf(bw, "%s %d\n", exp, counters[name].Value())
	}
	for _, name := range sortedKeys(gauges) {
		exp := promName(name)
		fmt.Fprintf(bw, "# HELP %s hpcnmf gauge %s\n", exp, promHelp(name))
		fmt.Fprintf(bw, "# TYPE %s gauge\n", exp)
		fmt.Fprintf(bw, "%s %s\n", exp, promFloat(gauges[name].Value()))
	}
	for _, name := range sortedKeys(hists) {
		exp := promName(name)
		count, sum, buckets := hists[name].bucketsSnapshot()
		fmt.Fprintf(bw, "# HELP %s hpcnmf histogram %s (seconds)\n", exp, promHelp(name))
		fmt.Fprintf(bw, "# TYPE %s histogram\n", exp)
		var cum int64
		next := promStride - 1
		for i := 0; i <= promFiniteMax; i++ {
			cum += buckets[i]
			if i == next {
				fmt.Fprintf(bw, "%s_bucket{le=%q} %d\n", exp, promFloat(bucketUpper(i)), cum)
				next += promStride
			}
		}
		fmt.Fprintf(bw, "%s_bucket{le=\"+Inf\"} %d\n", exp, count)
		fmt.Fprintf(bw, "%s_sum %s\n", exp, promFloat(sum))
		fmt.Fprintf(bw, "%s_count %d\n", exp, count)
	}
	return bw.Flush()
}

// WriteGoRuntime appends process/Go-runtime gauges (goroutines, heap,
// GC) in the same exposition format. Stats come from a single
// runtime.ReadMemStats call so the samples are mutually consistent.
func WriteGoRuntime(w io.Writer) error {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	bw := bufio.NewWriter(w)
	emit := func(name, typ, help string, val string) {
		fmt.Fprintf(bw, "# HELP %s %s\n", name, help)
		fmt.Fprintf(bw, "# TYPE %s %s\n", name, typ)
		fmt.Fprintf(bw, "%s %s\n", name, val)
	}
	emit("go_goroutines", "gauge", "Number of goroutines that currently exist.",
		strconv.Itoa(runtime.NumGoroutine()))
	emit("go_memstats_alloc_bytes_total", "counter", "Total number of bytes allocated, even if freed.",
		strconv.FormatUint(ms.TotalAlloc, 10))
	emit("go_memstats_heap_alloc_bytes", "gauge", "Number of heap bytes allocated and still in use.",
		strconv.FormatUint(ms.HeapAlloc, 10))
	emit("go_memstats_heap_sys_bytes", "gauge", "Number of heap bytes obtained from system.",
		strconv.FormatUint(ms.HeapSys, 10))
	emit("go_memstats_heap_objects", "gauge", "Number of allocated objects.",
		strconv.FormatUint(ms.HeapObjects, 10))
	emit("go_gc_cycles_total", "counter", "Number of completed GC cycles.",
		strconv.FormatUint(uint64(ms.NumGC), 10))
	emit("go_gc_pause_seconds_total", "counter", "Total GC stop-the-world pause time in seconds.",
		promFloat(float64(ms.PauseTotalNs)/1e9))
	last := 0.0
	if ms.NumGC > 0 {
		last = float64(ms.PauseNs[(ms.NumGC+255)%256]) / 1e9
	}
	emit("go_gc_last_pause_seconds", "gauge", "Duration of the most recent GC pause in seconds.",
		promFloat(last))
	return bw.Flush()
}

// Lint grammar for one sample line: name, optional {labels}, value,
// optional timestamp.
var (
	sampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (-?[0-9].*?|[+-]Inf|NaN)( -?[0-9]+)?$`)
	labelRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"$`)
)

// LintPrometheus validates text-exposition output the way promtool's
// `check metrics` would: every line must match the text-format
// grammar, TYPE declarations must precede their samples, histogram
// cumulative bucket counts must be monotone in `le` with a final
// +Inf bucket equal to _count, and _sum/_count series must be present
// for every declared histogram. A trailing OpenMetrics `# EOF` marker
// is accepted.
func LintPrometheus(r io.Reader) error {
	type histState struct {
		lastLe  float64
		lastCum float64
		haveInf bool
		infVal  float64
		sum     bool
		count   bool
		countV  float64
		buckets int
	}
	types := map[string]string{}
	hists := map[string]*histState{}
	baseOf := func(name string) (string, string) {
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if b, ok := strings.CutSuffix(name, suf); ok && types[b] == "histogram" {
				return b, suf
			}
		}
		return name, ""
	}

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) >= 2 && fields[1] == "EOF" {
				continue
			}
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				return fmt.Errorf("line %d: malformed comment %q", lineNo, line)
			}
			if !promNameRe.MatchString(fields[2]) {
				return fmt.Errorf("line %d: illegal metric name %q", lineNo, fields[2])
			}
			if fields[1] == "TYPE" {
				if len(fields) != 4 {
					return fmt.Errorf("line %d: TYPE needs exactly one type", lineNo)
				}
				switch fields[3] {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return fmt.Errorf("line %d: unknown type %q", lineNo, fields[3])
				}
				if _, dup := types[fields[2]]; dup {
					return fmt.Errorf("line %d: duplicate TYPE for %q", lineNo, fields[2])
				}
				types[fields[2]] = fields[3]
				if fields[3] == "histogram" {
					hists[fields[2]] = &histState{lastLe: math.Inf(-1)}
				}
			}
			continue
		}
		m := sampleRe.FindStringSubmatch(line)
		if m == nil {
			return fmt.Errorf("line %d: does not match sample grammar: %q", lineNo, line)
		}
		name, labels, valStr := m[1], m[2], m[3]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			return fmt.Errorf("line %d: bad sample value %q: %v", lineNo, valStr, err)
		}
		var le string
		if labels != "" {
			for _, pair := range strings.Split(strings.Trim(labels, "{}"), ",") {
				if pair = strings.TrimSpace(pair); pair == "" {
					continue
				}
				if !labelRe.MatchString(pair) {
					return fmt.Errorf("line %d: malformed label %q", lineNo, pair)
				}
				if v, ok := strings.CutPrefix(pair, "le="); ok {
					le = strings.Trim(v, `"`)
				}
			}
		}
		base, suffix := baseOf(name)
		h := hists[base]
		switch suffix {
		case "_bucket":
			if le == "" {
				return fmt.Errorf("line %d: histogram bucket without le label", lineNo)
			}
			var bound float64
			if le == "+Inf" {
				bound = math.Inf(1)
			} else if bound, err = strconv.ParseFloat(le, 64); err != nil {
				return fmt.Errorf("line %d: bad le %q: %v", lineNo, le, err)
			}
			if bound <= h.lastLe {
				return fmt.Errorf("line %d: %s le=%q out of order", lineNo, base, le)
			}
			if val < h.lastCum {
				return fmt.Errorf("line %d: %s cumulative count decreased (%g after %g)",
					lineNo, base, val, h.lastCum)
			}
			h.lastLe, h.lastCum = bound, val
			h.buckets++
			if math.IsInf(bound, 1) {
				h.haveInf, h.infVal = true, val
			}
		case "_sum":
			h.sum = true
		case "_count":
			h.count, h.countV = true, val
		default:
			if _, declared := types[name]; !declared {
				return fmt.Errorf("line %d: sample %q has no TYPE declaration", lineNo, name)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	for base, h := range hists {
		switch {
		case h.buckets == 0:
			return fmt.Errorf("histogram %s: no buckets emitted", base)
		case !h.haveInf:
			return fmt.Errorf("histogram %s: missing le=\"+Inf\" bucket", base)
		case !h.sum:
			return fmt.Errorf("histogram %s: missing _sum", base)
		case !h.count:
			return fmt.Errorf("histogram %s: missing _count", base)
		case h.infVal != h.countV:
			return fmt.Errorf("histogram %s: +Inf bucket %g != _count %g", base, h.infVal, h.countV)
		}
	}
	return nil
}
