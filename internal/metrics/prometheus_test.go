package metrics

import (
	"bytes"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

func TestPromNameSanitization(t *testing.T) {
	cases := map[string]string{
		"serve.project.requests": "serve_project_requests",
		"mpi.rank.0.words":       "mpi_rank_0_words",
		"0weird":                 "_0weird",
		"a-b c":                  "a_b_c",
		"already_fine":           "already_fine",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
		if !promNameRe.MatchString(promName(in)) {
			t.Errorf("promName(%q) = %q is not a legal metric name", in, promName(in))
		}
	}
}

func TestWritePrometheusBasicShape(t *testing.T) {
	r := NewRegistry()
	r.Counter("serve.project.requests").Add(5)
	r.Gauge("serve.queue.depth").Set(2.5)
	r.Histogram("mpi.latency.allgather").Observe(1e-6)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE serve_project_requests_total counter",
		"serve_project_requests_total 5",
		"# TYPE serve_queue_depth gauge",
		"serve_queue_depth 2.5",
		"# TYPE mpi_latency_allgather histogram",
		`mpi_latency_allgather_bucket{le="+Inf"} 1`,
		"mpi_latency_allgather_count 1",
		"mpi_latency_allgather_sum 1e-06",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q\n%s", want, out)
		}
	}
	if err := LintPrometheus(strings.NewReader(out)); err != nil {
		t.Fatalf("self-lint failed: %v", err)
	}
}

func TestWritePrometheusDeterministicOrder(t *testing.T) {
	mk := func(order []string) string {
		r := NewRegistry()
		for _, n := range order {
			r.Counter("c." + n).Inc()
			r.Gauge("g." + n).Set(1)
			r.Histogram("h." + n).Observe(0.5)
		}
		var buf bytes.Buffer
		if err := r.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a := mk([]string{"z", "m", "a"})
	b := mk([]string{"a", "z", "m"})
	if a != b {
		t.Fatal("exposition depends on instrument creation order")
	}
	if za, zm := strings.Index(a, "c_a_total"), strings.Index(a, "c_z_total"); za > zm {
		t.Fatal("counters not sorted by name")
	}
}

// TestHistogramExpositionProperty is the satellite property test:
// random observations — including exact bucket boundaries and values
// beyond the bucket range — always yield monotone cumulative bucket
// counts, a le="+Inf" bucket equal to _count, an exact _sum, and every
// finite-`le` cumulative that agrees with a direct count of samples
// ≤ le.
func TestHistogramExpositionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 25; trial++ {
		r := NewRegistry()
		h := r.Histogram("prop.latency")
		var samples []float64
		n := 1 + rng.Intn(400)
		for i := 0; i < n; i++ {
			var v float64
			switch rng.Intn(4) {
			case 0: // exact bucket upper bounds — the boundary case
				v = bucketUpper(rng.Intn(histBuckets))
			case 1: // beyond the bucket range: clamps into the last bucket
				v = bucketUpper(histBuckets-1) * (1 + rng.Float64()*1e3)
			case 2: // below the first bucket
				v = histLo * rng.Float64()
			default:
				v = math.Exp(rng.Float64()*40 - 25)
			}
			samples = append(samples, v)
			h.Observe(v)
		}

		var buf bytes.Buffer
		if err := r.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		if err := LintPrometheus(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("trial %d: lint: %v", trial, err)
		}

		// Re-parse the histogram series and cross-check against the
		// raw samples.
		var prevCum float64 = -1
		var infSeen, countSeen bool
		for _, line := range strings.Split(buf.String(), "\n") {
			switch {
			case strings.HasPrefix(line, "prop_latency_bucket{le=\"+Inf\"} "):
				infSeen = true
				got := parsePromValue(t, line)
				if got != float64(n) {
					t.Fatalf("trial %d: +Inf bucket %g, want %d", trial, got, n)
				}
			case strings.HasPrefix(line, "prop_latency_bucket{le="):
				le := strings.TrimPrefix(line, "prop_latency_bucket{le=\"")
				le = le[:strings.Index(le, `"`)]
				bound, err := parseFloat(le)
				if err != nil {
					t.Fatalf("trial %d: le %q: %v", trial, le, err)
				}
				cum := parsePromValue(t, line)
				if cum < prevCum {
					t.Fatalf("trial %d: cumulative decreased at le=%s", trial, le)
				}
				prevCum = cum
				var direct int
				for _, v := range samples {
					// Observe clamps negatives; all ours are ≥ 0.
					if v <= bound {
						direct++
					}
				}
				if int(cum) != direct {
					t.Fatalf("trial %d: le=%s cumulative %g, direct count %d", trial, le, cum, direct)
				}
			case strings.HasPrefix(line, "prop_latency_count "):
				countSeen = true
				if got := parsePromValue(t, line); got != float64(n) {
					t.Fatalf("trial %d: _count %g, want %d", trial, got, n)
				}
			case strings.HasPrefix(line, "prop_latency_sum "):
				var want float64
				for _, v := range samples {
					want += v
				}
				if got := parsePromValue(t, line); math.Abs(got-want) > 1e-9*math.Abs(want) {
					t.Fatalf("trial %d: _sum %g, want %g", trial, got, want)
				}
			}
		}
		if !infSeen || !countSeen {
			t.Fatalf("trial %d: +Inf bucket or _count series missing", trial)
		}
	}
}

func parsePromValue(t *testing.T, line string) float64 {
	t.Helper()
	i := strings.LastIndexByte(line, ' ')
	v, err := parseFloat(line[i+1:])
	if err != nil {
		t.Fatalf("bad sample line %q: %v", line, err)
	}
	return v
}

func parseFloat(s string) (float64, error) {
	if s == "+Inf" {
		return math.Inf(1), nil
	}
	return strconv.ParseFloat(s, 64)
}

func TestWriteGoRuntimeLints(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteGoRuntime(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "go_goroutines") || !strings.Contains(out, "go_memstats_heap_alloc_bytes") {
		t.Fatalf("runtime gauges missing:\n%s", out)
	}
	if err := LintPrometheus(strings.NewReader(out)); err != nil {
		t.Fatalf("lint: %v", err)
	}
	// Combined registry + runtime output must lint as one document,
	// the way the /metrics handler serves it.
	r := NewRegistry()
	r.Counter("x").Inc()
	var both bytes.Buffer
	if err := r.WritePrometheus(&both); err != nil {
		t.Fatal(err)
	}
	if err := WriteGoRuntime(&both); err != nil {
		t.Fatal(err)
	}
	if err := LintPrometheus(bytes.NewReader(both.Bytes())); err != nil {
		t.Fatalf("combined lint: %v", err)
	}
}

func TestLintPrometheusCatchesViolations(t *testing.T) {
	bad := map[string]string{
		"garbage line":      "this is not a metric\n",
		"bad name":          "# TYPE 9lives counter\n",
		"unknown type":      "# TYPE x widget\n",
		"undeclared sample": "x 1\n",
		"nonmonotone histogram": "# TYPE h histogram\n" +
			"h_bucket{le=\"0.1\"} 5\nh_bucket{le=\"1\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n",
		"missing +Inf": "# TYPE h histogram\n" +
			"h_bucket{le=\"0.1\"} 5\nh_sum 1\nh_count 5\n",
		"inf != count": "# TYPE h histogram\n" +
			"h_bucket{le=\"+Inf\"} 4\nh_sum 1\nh_count 5\n",
		"missing sum": "# TYPE h histogram\n" +
			"h_bucket{le=\"+Inf\"} 5\nh_count 5\n",
	}
	for name, doc := range bad {
		if err := LintPrometheus(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: lint accepted invalid document", name)
		}
	}
	good := "# HELP x a counter\n# TYPE x counter\nx 41\n# EOF\n"
	if err := LintPrometheus(strings.NewReader(good)); err != nil {
		t.Errorf("lint rejected valid document: %v", err)
	}
}
