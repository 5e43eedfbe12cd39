package trace

import (
	"bytes"
	"context"
	"sync"
	"testing"
)

// byName indexes merged events for parent-chain assertions.
func byName(t *testing.T, tr *Trace, name string) Event {
	t.Helper()
	for _, e := range tr.Events {
		if e.Name == name {
			return e
		}
	}
	t.Fatalf("event %q missing", name)
	return Event{}
}

func TestSpanStackParenting(t *testing.T) {
	s := NewSession(1, 16)
	tc := s.Tracer(0)
	outer := tc.Begin(CatIter, "iteration")
	mid := tc.Begin(CatPhase, "NLS")
	inner := tc.Begin(CatKernel, "MulAtB")
	inner.End()
	mid.End()
	after := tc.Begin(CatPhase, "MM")
	after.End()
	outer.End()

	tr := s.Merge()
	it := byName(t, tr, "iteration")
	nls := byName(t, tr, "NLS")
	mm := byName(t, tr, "MM")
	k := byName(t, tr, "MulAtB")
	if it.Parent != 0 {
		t.Fatalf("iteration parent = %d, want 0", it.Parent)
	}
	if it.ID == 0 || nls.ID == 0 {
		t.Fatal("pushed spans must have nonzero IDs")
	}
	if nls.Parent != it.ID || mm.Parent != it.ID {
		t.Fatalf("phase parents = %d,%d, want %d", nls.Parent, mm.Parent, it.ID)
	}
	if k.Parent != nls.ID {
		t.Fatalf("kernel parent = %d, want %d", k.Parent, nls.ID)
	}
}

func TestExplicitParentAndRoot(t *testing.T) {
	s := NewSession(2, 16)
	req := s.Tracer(0).Begin(CatRequest, "request")
	sc := req.Context()
	if sc.SpanID == 0 {
		t.Fatal("request span has no ID")
	}

	// Cross-track child: rank 1 parents its work under rank 0's span.
	child := s.Tracer(1).BeginChildArg(sc, CatPhase, "serve.batch", "cols", 3)
	grand := s.Tracer(1).Begin(CatPhase, "serve.solve")
	grand.End()
	child.End()
	req.End()

	// An external root (e.g. a parsed X-Trace-Id): the span takes both
	// its parent and its trace from the context it is begun under.
	root := SpanContext{TraceID: 42, SpanID: 7}
	top := s.Tracer(1).BeginChildArg(root, CatPhase, "rooted", "", 0)
	top.End()

	tr := s.Merge()
	batch := byName(t, tr, "serve.batch")
	solve := byName(t, tr, "serve.solve")
	rooted := byName(t, tr, "rooted")
	if batch.Parent != sc.SpanID {
		t.Fatalf("batch parent = %d, want %d", batch.Parent, sc.SpanID)
	}
	if solve.Parent != batch.ID {
		t.Fatalf("solve parent = %d, want %d", solve.Parent, batch.ID)
	}
	if rooted.Parent != 7 || rooted.TraceID != 42 {
		t.Fatalf("rooted parent/trace = %d/%d, want 7/42", rooted.Parent, rooted.TraceID)
	}
}

func TestSpanContextRoundTrip(t *testing.T) {
	sc := SpanContext{TraceID: 0xdeadbeef01, SpanID: 0x42}
	got, err := ParseSpanContext(sc.String())
	if err != nil {
		t.Fatal(err)
	}
	if got != sc {
		t.Fatalf("round trip %v -> %q -> %v", sc, sc.String(), got)
	}
	if _, err := ParseSpanContext("bogus"); err == nil {
		t.Fatal("ParseSpanContext accepted garbage")
	}
	if (SpanContext{}).Valid() {
		t.Fatal("zero context claims validity")
	}

	ctx := ContextWith(context.Background(), sc)
	if got := FromContext(ctx); got != sc {
		t.Fatalf("FromContext = %v, want %v", got, sc)
	}
	if got := FromContext(context.Background()); got.Valid() {
		t.Fatalf("empty context yields %v", got)
	}
}

func TestNewTraceIDNonzeroAndDistinct(t *testing.T) {
	a, b := NewTraceID(), NewTraceID()
	if a == 0 || b == 0 || a == b {
		t.Fatalf("NewTraceID gave %d, %d", a, b)
	}
}

func TestChromeRoundTripPreservesSpanIdentity(t *testing.T) {
	s := NewSession(1, 16)
	outer := s.Tracer(0).BeginChildArg(SpanContext{TraceID: 0xabc}, CatPhase, "NLS", "", 0)
	s.Tracer(0).BeginArg(CatMPI, "allgather", "words", 16).End()
	outer.End()
	orig := s.Merge()

	var buf bytes.Buffer
	if err := orig.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ParseChrome(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"NLS", "allgather"} {
		o, b := byName(t, orig, name), byName(t, back, name)
		if b.ID != o.ID || b.Parent != o.Parent || b.TraceID != o.TraceID {
			t.Fatalf("%s identity changed: got id/parent/trace %d/%d/%d, want %d/%d/%d",
				name, b.ID, b.Parent, b.TraceID, o.ID, o.Parent, o.TraceID)
		}
	}
	ag := byName(t, back, "allgather")
	if ag.ArgName != "words" || ag.Arg != 16 {
		t.Fatalf("payload arg lost next to identity args: %s=%d", ag.ArgName, ag.Arg)
	}
}

// TestRingWraparoundDropsOldestInOrder pins the overwrite policy with
// several full wraps: the ring always retains exactly the newest
// <capacity> events, in recording order.
func TestRingWraparoundDropsOldestInOrder(t *testing.T) {
	const capacity, emitted = 8, 8*3 + 5
	s := NewSession(1, capacity)
	tc := s.Tracer(0)
	for i := 0; i < emitted; i++ {
		tc.BeginArg(CatIter, "iteration", "iter", int64(i)).End()
	}
	tr := s.Merge()
	if len(tr.Events) != capacity {
		t.Fatalf("kept %d events, want %d", len(tr.Events), capacity)
	}
	if tr.Dropped != emitted-capacity {
		t.Fatalf("Dropped = %d, want %d", tr.Dropped, emitted-capacity)
	}
	for i, e := range tr.Events {
		if want := int64(emitted - capacity + i); e.Arg != want {
			t.Fatalf("slot %d holds iter %d, want %d (oldest must drop first)", i, e.Arg, want)
		}
	}
}

// TestConcurrentEmitAcrossRanks exercises the single-owner discipline
// under the race detector: many rank goroutines emitting concurrently
// share only the span-ID counter, and every recorded span ID is
// process-unique.
func TestConcurrentEmitAcrossRanks(t *testing.T) {
	const ranks, perRank = 8, 200
	s := NewSession(ranks, perRank/2) // force wraparound on every rank
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(tc *Tracer) {
			defer wg.Done()
			for i := 0; i < perRank; i++ {
				outer := tc.BeginArg(CatIter, "iteration", "iter", int64(i))
				tc.Begin(CatPhase, "MM").End()
				outer.End()
			}
		}(s.Tracer(r))
	}
	wg.Wait()

	tr := s.Merge()
	if got, want := len(tr.Events), ranks*(perRank/2); got != want {
		t.Fatalf("retained %d events, want %d", got, want)
	}
	seen := map[uint64]int{}
	perRankIters := map[int]int64{}
	for _, e := range tr.Events {
		if e.ID == 0 {
			t.Fatal("pushed span recorded with zero ID")
		}
		if seen[e.ID]++; seen[e.ID] > 1 {
			t.Fatalf("span ID %d recorded twice", e.ID)
		}
		if e.Name == "iteration" {
			if prev, ok := perRankIters[e.Rank]; ok && e.Arg <= prev {
				t.Fatalf("rank %d iterations out of order: %d after %d", e.Rank, e.Arg, prev)
			}
			perRankIters[e.Rank] = e.Arg
		}
	}
}

// An implicit child begun while an explicitly-parented span is open
// inherits that span's trace ID through the stack — the serve chain
// (request → batch → solve → kernel) depends on this to stamp every
// level with the request's trace.
func TestImplicitChildInheritsExplicitTraceID(t *testing.T) {
	s := NewSession(1, 0)
	tc := s.Tracer(0)
	req := SpanContext{TraceID: 0x77, SpanID: 0x3}
	batch := tc.BeginChildArg(req, CatPhase, "batch", "", 0)
	solve := tc.Begin(CatPhase, "solve")
	kernel := tc.Begin(CatKernel, "mul")
	kernel.End()
	solve.End()
	batch.End()

	byName := map[string]Event{}
	for _, e := range s.Merge().Events {
		byName[e.Name] = e
	}
	b, sv, k := byName["batch"], byName["solve"], byName["mul"]
	if b.TraceID != 0x77 || b.Parent != 0x3 {
		t.Fatalf("batch trace/parent = %#x/%#x, want 0x77/0x3", b.TraceID, b.Parent)
	}
	if sv.TraceID != 0x77 || sv.Parent != b.ID {
		t.Fatalf("solve trace/parent = %#x/%#x, want 0x77/%#x", sv.TraceID, sv.Parent, b.ID)
	}
	if k.TraceID != 0x77 || k.Parent != sv.ID {
		t.Fatalf("kernel trace/parent = %#x/%#x, want 0x77/%#x", k.TraceID, k.Parent, sv.ID)
	}
}
