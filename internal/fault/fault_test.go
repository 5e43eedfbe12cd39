package fault

import (
	"testing"
	"time"

	"hpcnmf/internal/mpi"
)

func TestParseSpec(t *testing.T) {
	inj, err := Parse("kill:AllReduce:rank=2:call=3; delay:AllGather:d=50ms; drop:*:rank=0:prob=0.5:seed=7")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if len(inj.rules) != 3 {
		t.Fatalf("parsed %d rules, want 3", len(inj.rules))
	}
	want := []Rule{
		{Action: mpi.FaultKill, Site: "AllReduce", Rank: 2, Call: 3},
		{Action: mpi.FaultDelay, Site: "AllGather", Rank: -1, Delay: 50 * time.Millisecond},
		{Action: mpi.FaultDrop, Site: "*", Rank: 0, Prob: 0.5},
	}
	for i, w := range want {
		if inj.rules[i] != w {
			t.Errorf("rule %d = %+v, want %+v", i, inj.rules[i], w)
		}
	}
	if inj.seed != 7 {
		t.Errorf("seed = %d, want 7", inj.seed)
	}
}

func TestParseRejectsBadSpecs(t *testing.T) {
	for _, spec := range []string{
		"",                        // no rules at all
		";;",                      // only empty rules
		"explode:AllReduce",       // unknown action
		"kill",                    // missing site
		"kill:",                   // empty site
		"kill:AllReduce:rank",     // field without value
		"kill:AllReduce:rank=-2",  // negative rank
		"kill:AllReduce:call=x",   // non-numeric call
		"delay:AllReduce",         // delay without d=
		"delay:AllReduce:d=-1s",   // negative duration
		"kill:AllReduce:prob=1.5", // probability out of range
		"kill:AllReduce:seed=abc", // bad seed
		"kill:AllReduce:volume=9", // unknown field
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", spec)
		}
	}
}

func TestRuleMatching(t *testing.T) {
	inj := New(0, Rule{Action: mpi.FaultKill, Site: "AllReduce", Rank: 1, Call: 2})
	hook := inj.Hook()

	// Rank 1's first AllReduce does not match (call=2), the second does;
	// other ranks and sites never match.
	if a, _ := hook(1, "AllReduce"); a != mpi.FaultNone {
		t.Fatalf("call 1 injected %v, want none", a)
	}
	if a, _ := hook(0, "AllReduce"); a != mpi.FaultNone {
		t.Fatalf("rank 0 injected %v, want none", a)
	}
	if a, _ := hook(1, "AllGather"); a != mpi.FaultNone {
		t.Fatalf("AllGather injected %v, want none", a)
	}
	if a, _ := hook(1, "AllReduce"); a != mpi.FaultKill {
		t.Fatalf("call 2 injected %v, want kill", a)
	}

	got := inj.Injected()
	if len(got) != 1 || got[0] != (Injection{Rank: 1, Site: "AllReduce", Call: 2, Action: mpi.FaultKill}) {
		t.Fatalf("Injected() = %v", got)
	}
}

func TestProbabilisticRuleIsDeterministic(t *testing.T) {
	decide := func() []bool {
		inj := New(99, Rule{Action: mpi.FaultKill, Site: "*", Rank: -1, Prob: 0.5})
		hook := inj.Hook()
		var out []bool
		for rank := 0; rank < 4; rank++ {
			for call := 0; call < 8; call++ {
				a, _ := hook(rank, "AllReduce")
				out = append(out, a == mpi.FaultKill)
			}
		}
		return out
	}
	a, b := decide(), decide()
	fired := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs between identically-seeded runs", i)
		}
		if a[i] {
			fired++
		}
	}
	if fired == 0 || fired == len(a) {
		t.Fatalf("prob=0.5 fired %d/%d times; the coin is not mixing", fired, len(a))
	}
}

func TestFirstMatchingRuleWins(t *testing.T) {
	inj := New(0,
		Rule{Action: mpi.FaultDelay, Site: "AllReduce", Rank: -1, Delay: time.Millisecond},
		Rule{Action: mpi.FaultKill, Site: "*", Rank: -1},
	)
	hook := inj.Hook()
	if a, d := hook(0, "AllReduce"); a != mpi.FaultDelay || d != time.Millisecond {
		t.Fatalf("injected (%v, %v), want first rule (delay, 1ms)", a, d)
	}
	if a, _ := hook(0, "AllGather"); a != mpi.FaultKill {
		t.Fatal("second rule should catch sites the first does not")
	}
}
