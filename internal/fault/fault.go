// Package fault is a deterministic fault injector for the in-process
// MPI runtime: it delays, drops, or kills ranks at chosen collective
// call-sites, so the failure paths a production factorization job must
// survive — rank death, stragglers, lost messages — can be provoked on
// demand and reproduced exactly.
//
// An injector is a list of rules. Each rule names an action, a
// call-site (a collective category such as "AllReduce", or "*"), and
// optionally a rank, an occurrence index, a delay duration, and a
// probability. Probabilistic rules are seeded: the decision at a given
// (rank, site, call) is a pure function of the seed, so a run with the
// same spec and seed injects the same faults regardless of goroutine
// scheduling.
//
// Rules are written as spec strings (the `nmfrun -fault` syntax):
//
//	kill:AllReduce:rank=2:call=3        kill rank 2 at its 3rd AllReduce
//	delay:ReduceScatter:rank=1:d=50ms   stall rank 1 at every reduce-scatter
//	drop:AllGather:rank=0:call=2        lose rank 0's sends in its 2nd all-gather
//	kill:*:prob=0.001:seed=7            seeded random rank death anywhere
//
// Multiple rules are separated by ';'. The first matching rule fires.
package fault

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"hpcnmf/internal/mpi"
	"hpcnmf/internal/rng"
)

// Rule matches a set of collective call-sites and names the action to
// inject there. Zero-valued match fields are wildcards (see the field
// comments); Parse fills them from a spec string.
type Rule struct {
	// Action is what the fault does: mpi.FaultDelay, mpi.FaultDrop, or
	// mpi.FaultKill.
	Action mpi.FaultAction
	// Site is the collective category name ("AllReduce",
	// "ReduceScatter", ...); "*" or "" matches every collective.
	Site string
	// Rank is the world rank to afflict; -1 matches every rank.
	Rank int
	// Call is the 1-based occurrence of Site on Rank at which to fire
	// (per-rank, per-site counting); 0 matches every occurrence.
	Call int
	// Delay is the stall duration for FaultDelay rules.
	Delay time.Duration
	// Prob gates the rule with a seeded coin in (0, 1]; 0 or 1 fires
	// deterministically on every match.
	Prob float64
}

// Injection records one fault that actually fired, for tests and
// post-mortem reports.
type Injection struct {
	Rank   int
	Site   string
	Call   int
	Action mpi.FaultAction
}

// String formats the injection like a spec-string rule.
func (i Injection) String() string {
	return fmt.Sprintf("%s:%s:rank=%d:call=%d", i.Action, i.Site, i.Rank, i.Call)
}

// Injector applies rules at collective call-sites. It is safe for
// concurrent use from all rank goroutines; decisions depend only on
// (rule list, seed, rank, site, occurrence), never on timing.
type Injector struct {
	rules []Rule
	seed  uint64

	mu       sync.Mutex
	calls    map[siteKey]int
	injected []Injection
}

type siteKey struct {
	rank int
	site string
}

// New builds an injector from explicit rules. seed drives the
// probabilistic rules (ignored when none have Prob set).
func New(seed uint64, rules ...Rule) *Injector {
	return &Injector{rules: rules, seed: seed, calls: make(map[siteKey]int)}
}

// Parse builds an injector from a ';'-separated spec string (see the
// package comment for the grammar).
func Parse(spec string) (*Injector, error) {
	inj := New(0)
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		r, seed, err := parseRule(part)
		if err != nil {
			return nil, fmt.Errorf("fault: bad rule %q: %w", part, err)
		}
		if seed != 0 {
			inj.seed = seed
		}
		inj.rules = append(inj.rules, r)
	}
	if len(inj.rules) == 0 {
		return nil, fmt.Errorf("fault: empty spec %q", spec)
	}
	return inj, nil
}

// parseRule parses one "action:site[:key=value...]" rule; a seed=N
// field is returned separately (it is injector-global).
func parseRule(s string) (Rule, uint64, error) {
	fields := strings.Split(s, ":")
	if len(fields) < 2 {
		return Rule{}, 0, fmt.Errorf("want action:site[:key=value...]")
	}
	r := Rule{Rank: -1}
	switch fields[0] {
	case "delay":
		r.Action = mpi.FaultDelay
	case "drop":
		r.Action = mpi.FaultDrop
	case "kill":
		r.Action = mpi.FaultKill
	default:
		return Rule{}, 0, fmt.Errorf("unknown action %q (want delay, drop, or kill)", fields[0])
	}
	r.Site = fields[1]
	if r.Site == "" {
		return Rule{}, 0, fmt.Errorf("empty site (use * for any collective)")
	}
	var seed uint64
	for _, f := range fields[2:] {
		key, val, ok := strings.Cut(f, "=")
		if !ok {
			return Rule{}, 0, fmt.Errorf("field %q is not key=value", f)
		}
		var err error
		switch key {
		case "rank":
			if val == "*" {
				r.Rank = -1
			} else if r.Rank, err = strconv.Atoi(val); err != nil || r.Rank < 0 {
				return Rule{}, 0, fmt.Errorf("bad rank %q", val)
			}
		case "call":
			if r.Call, err = strconv.Atoi(val); err != nil || r.Call < 0 {
				return Rule{}, 0, fmt.Errorf("bad call %q", val)
			}
		case "d":
			if r.Delay, err = time.ParseDuration(val); err != nil || r.Delay < 0 {
				return Rule{}, 0, fmt.Errorf("bad duration %q", val)
			}
		case "prob":
			if r.Prob, err = strconv.ParseFloat(val, 64); err != nil || r.Prob < 0 || r.Prob > 1 {
				return Rule{}, 0, fmt.Errorf("bad probability %q", val)
			}
		case "seed":
			if seed, err = strconv.ParseUint(val, 10, 64); err != nil {
				return Rule{}, 0, fmt.Errorf("bad seed %q", val)
			}
		default:
			return Rule{}, 0, fmt.Errorf("unknown field %q", key)
		}
	}
	if r.Action == mpi.FaultDelay && r.Delay <= 0 {
		return Rule{}, 0, fmt.Errorf("delay rule needs d=<duration>")
	}
	return r, seed, nil
}

// Hook adapts the injector to the runtime's fault interface; pass the
// result to mpi.World.SetFault. The hook counts call-sites itself:
// each (rank, site) pair keeps a 1-based occurrence counter, which is
// deterministic because every rank executes its collective sequence in
// program order.
func (in *Injector) Hook() mpi.FaultFunc {
	return in.at
}

func (in *Injector) at(rank int, site string) (mpi.FaultAction, time.Duration) {
	in.mu.Lock()
	defer in.mu.Unlock()
	k := siteKey{rank: rank, site: site}
	in.calls[k]++
	call := in.calls[k]
	for _, r := range in.rules {
		if !r.matches(rank, site, call) {
			continue
		}
		if r.Prob > 0 && r.Prob < 1 && !in.coin(rank, site, call, r.Prob) {
			continue
		}
		in.injected = append(in.injected, Injection{Rank: rank, Site: site, Call: call, Action: r.Action})
		return r.Action, r.Delay
	}
	return mpi.FaultNone, 0
}

// matches reports whether the rule covers this call-site.
func (r Rule) matches(rank int, site string, call int) bool {
	if r.Site != "*" && r.Site != site {
		return false
	}
	if r.Rank >= 0 && r.Rank != rank {
		return false
	}
	return r.Call == 0 || r.Call == call
}

// coin draws the seeded probabilistic decision for one call-site: a
// pure function of (seed, rank, site, call), so runs replay exactly.
func (in *Injector) coin(rank int, site string, call int, prob float64) bool {
	h := uint64(14695981039346656037)
	for _, b := range []byte(site) {
		h = (h ^ uint64(b)) * 1099511628211
	}
	h ^= uint64(rank)<<32 ^ uint64(call)
	return rng.NewSub(in.seed, h).Float64() < prob
}

// Injected returns the faults that have fired so far, in a
// deterministic order (sorted by rank, site, call; the arrival order
// across rank goroutines is scheduling-dependent).
func (in *Injector) Injected() []Injection {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make([]Injection, len(in.injected))
	copy(out, in.injected)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Rank != out[j].Rank {
			return out[i].Rank < out[j].Rank
		}
		if out[i].Site != out[j].Site {
			return out[i].Site < out[j].Site
		}
		return out[i].Call < out[j].Call
	})
	return out
}
