package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	sp := tr.Begin(CatPhase, "MM")
	sp.End()
	sp2 := tr.BeginArg(CatMPI, "allgather", "words", 128)
	sp2.End()
	// Zero-value Span must also be safe.
	var zero Span
	zero.End()
}

func TestSessionRecordsAndMerges(t *testing.T) {
	s := NewSession(2, 16)
	if s.Ranks() != 2 {
		t.Fatalf("Ranks() = %d", s.Ranks())
	}
	sp := s.Tracer(0).Begin(CatPhase, "Gram")
	inner := s.Tracer(0).BeginArg(CatMPI, "allreduce", "words", 64)
	time.Sleep(time.Millisecond)
	inner.End()
	sp.End()
	s.Tracer(1).Begin(CatPhase, "MM").End()

	tr := s.Merge()
	if tr.Ranks != 2 {
		t.Fatalf("merged Ranks = %d", tr.Ranks)
	}
	if len(tr.Events) != 3 {
		t.Fatalf("merged %d events, want 3", len(tr.Events))
	}
	// Events are sorted by start time: Gram opened first.
	if tr.Events[0].Name != "Gram" {
		t.Fatalf("first event %q, want Gram", tr.Events[0].Name)
	}
	var gram, allr Event
	for _, e := range tr.Events {
		switch e.Name {
		case "Gram":
			gram = e
		case "allreduce":
			allr = e
		}
	}
	if gram.Rank != 0 || allr.Rank != 0 {
		t.Fatal("rank attribution wrong")
	}
	// The collective nests inside the phase span on the shared timeline.
	if allr.Start < gram.Start || allr.Start+allr.Dur > gram.Start+gram.Dur {
		t.Fatalf("allreduce [%v,+%v] not nested in Gram [%v,+%v]",
			allr.Start, allr.Dur, gram.Start, gram.Dur)
	}
	if allr.ArgName != "words" || allr.Arg != 64 {
		t.Fatalf("arg payload = %s=%d", allr.ArgName, allr.Arg)
	}
}

func TestRingOverflowKeepsNewestAndCountsDropped(t *testing.T) {
	s := NewSession(1, 4)
	tc := s.Tracer(0)
	for i := 0; i < 10; i++ {
		tc.BeginArg(CatIter, "iteration", "iter", int64(i)).End()
	}
	tr := s.Merge()
	if len(tr.Events) != 4 {
		t.Fatalf("kept %d events, want 4", len(tr.Events))
	}
	if tr.Dropped != 6 {
		t.Fatalf("Dropped = %d, want 6", tr.Dropped)
	}
	// The ring keeps the newest events (iters 6..9), in order.
	for i, e := range tr.Events {
		if want := int64(6 + i); e.Arg != want {
			t.Fatalf("event %d has iter %d, want %d", i, e.Arg, want)
		}
	}
}

func TestChromeRoundTrip(t *testing.T) {
	s := NewSession(3, 64)
	outer := s.Tracer(2).Begin(CatPhase, "NLS")
	s.Tracer(2).BeginArg(CatMPI, "reducescatter", "words", 256).End()
	outer.End()
	s.Tracer(0).Begin(CatPhase, "MM").End()
	orig := s.Merge()

	var buf bytes.Buffer
	if err := orig.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ParseChrome(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if back.Ranks < orig.Ranks {
		t.Fatalf("round-trip Ranks = %d, want >= %d", back.Ranks, orig.Ranks)
	}
	if len(back.Events) != len(orig.Events) {
		t.Fatalf("round-trip %d events, want %d", len(back.Events), len(orig.Events))
	}
	find := func(tr *Trace, name string) Event {
		for _, e := range tr.Events {
			if e.Name == name {
				return e
			}
		}
		t.Fatalf("event %q missing", name)
		return Event{}
	}
	for _, name := range []string{"NLS", "reducescatter", "MM"} {
		o, b := find(orig, name), find(back, name)
		if b.Rank != o.Rank || b.Cat != o.Cat {
			t.Fatalf("%s: rank/cat changed: %+v vs %+v", name, b, o)
		}
		// Timestamps survive to microsecond precision.
		if d := b.Start - o.Start; d < -time.Microsecond || d > time.Microsecond {
			t.Fatalf("%s: start drifted by %v", name, d)
		}
	}
	rs, nls := find(back, "reducescatter"), find(back, "NLS")
	if rs.Start < nls.Start || rs.Start+rs.Dur > nls.Start+nls.Dur+time.Microsecond {
		t.Fatal("nesting lost in round trip")
	}
	if rs.ArgName != "words" || rs.Arg != 256 {
		t.Fatalf("arg payload lost: %s=%d", rs.ArgName, rs.Arg)
	}
}

func TestChromeOutputShape(t *testing.T) {
	s := NewSession(2, 8)
	s.Tracer(0).Begin(CatPhase, "MM").End()
	s.Tracer(1).Begin(CatPhase, "Gram").End()
	var buf bytes.Buffer
	if err := s.Merge().WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("output is not valid JSON: %v", err)
	}
	var meta, complete int
	tids := map[float64]bool{}
	for _, ev := range file.TraceEvents {
		switch ev["ph"] {
		case "M":
			meta++
		case "X":
			complete++
			tids[ev["tid"].(float64)] = true
		}
	}
	if complete != 2 {
		t.Fatalf("%d complete events, want 2", complete)
	}
	// thread_name + thread_sort_index per rank.
	if meta != 4 {
		t.Fatalf("%d metadata events, want 4", meta)
	}
	if len(tids) != 2 {
		t.Fatalf("events spread over %d tids, want 2 (one track per rank)", len(tids))
	}
	if !strings.Contains(buf.String(), "rank 0") {
		t.Fatal("track name 'rank 0' missing")
	}
}

func TestParseChromeRejectsGarbage(t *testing.T) {
	if _, err := ParseChrome(strings.NewReader("not json")); err == nil {
		t.Fatal("ParseChrome accepted garbage")
	}
}
