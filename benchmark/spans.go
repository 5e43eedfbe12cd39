package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// recorder is the benchmark's own in-memory span log. Spans are taken
// from outside the program, around facade calls and replayed layer
// calls; spans inside the program are a later issue. A nil recorder
// records nothing, which is how the untraced run stays untraced.
type recorder struct {
	mu       sync.Mutex
	t0       time.Time
	workload string
	spans    []spanRec
}

type spanRec struct {
	id, parent int // parent 0 = root
	name       string
	lane       int // Chrome-trace tid: spans on one lane nest properly
	rep        int
	start, end time.Duration
}

// span is a handle on an open spanRec; the zero of *span (nil) is a
// no-op so call sites need no "if tracing" branches.
type span struct {
	r  *recorder
	id int
}

func newRecorder(workload string) *recorder {
	return &recorder{t0: time.Now(), workload: workload}
}

// begin opens a span under parent (nil = root) on the parent's lane.
func (r *recorder) begin(name string, parent *span, rep int) *span {
	lane := 0
	if r != nil && parent != nil {
		r.mu.Lock()
		lane = r.spans[parent.id-1].lane
		r.mu.Unlock()
	}
	return r.beginLane(name, parent, rep, lane)
}

// beginLane is begin on an explicit lane, for spans that run
// concurrently with their siblings (load-generator clients).
func (r *recorder) beginLane(name string, parent *span, rep, lane int) *span {
	if r == nil {
		return nil
	}
	pid := 0
	if parent != nil {
		pid = parent.id
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, spanRec{
		id: len(r.spans) + 1, parent: pid, name: name, lane: lane, rep: rep,
		start: time.Since(r.t0), end: -1,
	})
	return &span{r: r, id: len(r.spans)}
}

func (s *span) end() {
	if s == nil {
		return
	}
	s.r.mu.Lock()
	s.r.spans[s.id-1].end = time.Since(s.r.t0)
	s.r.mu.Unlock()
}

// selfTimes returns, per span name, the call count, total time and
// self time: a span's duration minus the part of it that its child
// spans cover (children that overlap each other are counted once).
func (r *recorder) selfTimes() []spanTotal {
	r.mu.Lock()
	spans := append([]spanRec(nil), r.spans...)
	r.mu.Unlock()
	children := map[int][]spanRec{}
	for _, s := range spans {
		if s.end >= 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	byName := map[string]*spanTotal{}
	for _, s := range spans {
		if s.end < 0 {
			continue
		}
		t := byName[s.name]
		if t == nil {
			t = &spanTotal{Name: s.name}
			byName[s.name] = t
		}
		dur := s.end - s.start
		t.Count++
		t.Total += dur
		t.Self += dur - covered(children[s.id], s.start, s.end)
	}
	out := make([]spanTotal, 0, len(byName))
	for _, t := range byName {
		out = append(out, *t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Total > out[j].Total })
	return out
}

type spanTotal struct {
	Name        string
	Count       int
	Total, Self time.Duration
}

// covered is the length of the union of the kids' intervals clipped
// to [lo, hi].
func covered(kids []spanRec, lo, hi time.Duration) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].start < kids[j].start })
	var sum time.Duration
	cur := lo
	for _, k := range kids {
		s, e := max(k.start, cur), min(k.end, hi)
		if e > s {
			sum += e - s
			cur = e
		}
	}
	return sum
}

// writeChrome writes the spans as Chrome trace_event JSON (open in
// Perfetto or chrome://tracing).
func (r *recorder) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	r.mu.Lock()
	events := make([]event, 0, len(r.spans))
	for _, s := range r.spans {
		if s.end < 0 {
			continue
		}
		events = append(events, event{
			Name: s.name, Cat: "benchmark", Ph: "X",
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Pid: 1, Tid: s.lane,
			Args: map[string]any{"id": s.id, "parent": s.parent, "workload": r.workload, "rep": s.rep},
		})
	}
	r.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// printSelfTimes prints the span table of the traced run.
func (r *recorder) printSelfTimes(w io.Writer) {
	fmt.Fprintf(w, "\nspans (benchmark-side; self = span minus the time its children cover)\n")
	fmt.Fprintf(w, "  %-34s %7s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, t := range r.selfTimes() {
		fmt.Fprintf(w, "  %-34s %7d %12.3f %12.3f\n", t.Name, t.Count, ms(t.Total), ms(t.Self))
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
