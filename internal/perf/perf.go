// Package perf instruments the NMF algorithms with the task breakdown
// the paper reports (§6.3): per-rank wall time and flop counts for the
// local computation tasks (MM, NLS, Gram) and, combined with the
// traffic counters from the mpi package, α-β-γ modeled times for the
// communication tasks (All-Gather, Reduce-Scatter, All-Reduce).
//
// Two views of the same run are produced:
//
//   - Measured: wall-clock time per task on real goroutines. On a
//     shared-memory machine the communication tasks are nearly free,
//     so this view shows the computation profile.
//   - Modeled: γ·flops + α·messages + β·words per rank, maxed over
//     ranks — the paper's own cost model (§2.2) applied to exact
//     per-rank counts, with Edison-like machine constants. This view
//     restores the cluster cost ratios and is the one the figure
//     reproductions report.
package perf

import (
	"fmt"
	"strings"
	"time"

	"hpcnmf/internal/mpi"
	"hpcnmf/internal/trace"
)

// Task identifies one component of the per-iteration time breakdown,
// matching Figure 3's legend.
type Task int

const (
	TaskMM Task = iota // local matrix multiply with the data matrix
	TaskNLS
	TaskGram
	TaskAllGather
	TaskReduceScatter
	TaskAllReduce
	TaskTileWait // blocked on an out-of-core tile, as its pipeline clocked it
	TaskOther
	numTasks
)

var taskNames = [numTasks]string{"MM", "NLS", "Gram", "AllG", "RedSc", "AllR", "TileWait", "Other"}

// String returns the legend label used in the paper's figures.
func (t Task) String() string {
	if t < 0 || t >= numTasks {
		return fmt.Sprintf("Task(%d)", int(t))
	}
	return taskNames[t]
}

var legend = [numTasks]Task{TaskNLS, TaskMM, TaskGram, TaskAllGather, TaskReduceScatter, TaskAllReduce, TaskTileWait, TaskOther}

// Tasks lists all tasks in the display order of the paper's legend.
// The slice is shared (a per-iteration reader allocates nothing): read
// it, do not write it.
func Tasks() []Task { return legend[:] }

// commTask maps an mpi traffic category onto a breakdown task.
func commTask(cat mpi.Category) Task {
	switch cat {
	case mpi.CatAllGather:
		return TaskAllGather
	case mpi.CatReduceScatter:
		return TaskReduceScatter
	case mpi.CatAllReduce:
		return TaskAllReduce
	case mpi.CatSetup:
		return -1 // excluded
	default:
		return TaskOther
	}
}

// Ledger is one rank's books: wall time and flops per task, the wall
// time of the steps the tasks ran in, and the rank's tracer, so one
// Start/Stop pair feeds the breakdown, the progress series, the live
// counters and the trace. Everything that reports a task time reads a
// Ledger; a window of a run is the difference of two copies. It is
// owned by a single rank goroutine, needs no locking, and timing a
// phase allocates nothing.
type Ledger struct {
	Wall  [numTasks]time.Duration // indexed by Task
	Flops [numTasks]int64
	// Step is the wall time of whole iterations, phases and the code
	// between them alike; the iteration adds its own clock.
	Step   time.Duration
	Tracer *trace.Tracer // nil when tracing is off
}

// Phase is one in-flight task measurement; pass it back to Stop.
type Phase struct {
	task  Task
	start time.Time
	sp    trace.Span // zero (no-op) when tracing is off
}

// Start begins timing a task, under a span when tracing is on. Phases
// do not nest: Σ task time ≤ step time only while at most one is open.
func (l *Ledger) Start(task Task) Phase {
	sp := l.Tracer.Begin(trace.CatPhase, task.String())
	return Phase{task: task, start: time.Now(), sp: sp}
}

// StartQuiet is Start without the span, for work that is charged (to
// Other) but is not a phase of the algorithm: the trace keeps the
// shape of the paper's tasks.
func (l *Ledger) StartQuiet(task Task) Phase { return Phase{task: task, start: time.Now()} }

// Stop charges the phase's elapsed time and its flops to its task.
func (l *Ledger) Stop(p Phase, flops int64) {
	l.Wall[p.task] += time.Since(p.start)
	l.Flops[p.task] += flops
	p.sp.End()
}

// Add charges a duration somebody else already clocked (a pipeline's
// own wait counter) to a task, and no span.
func (l *Ledger) Add(task Task, d time.Duration) { l.Wall[task] += d }

// Sub returns the books of the window since earlier, a copy of l taken
// when the window opened.
func (l Ledger) Sub(earlier Ledger) Ledger {
	for t := range l.Wall {
		l.Wall[t] -= earlier.Wall[t]
		l.Flops[t] -= earlier.Flops[t]
	}
	l.Step -= earlier.Step
	return l
}

// Unattributed returns the step time no task was charged for: by
// construction Σ Wall + Unattributed() = Step, in integer nanoseconds.
func (l *Ledger) Unattributed() time.Duration {
	u := l.Step
	for _, w := range l.Wall {
		u -= w
	}
	return u
}

// Model holds the α-β-γ machine constants (§2.2): seconds per
// message, per word (one float64), and per flop.
type Model struct {
	Alpha float64 // latency: seconds per message
	Beta  float64 // inverse bandwidth: seconds per 8-byte word
	Gamma float64 // seconds per floating point operation
}

// Seconds prices a workload under the model: γ·flops + α·msgs +
// β·words. It is the single formula behind the modeled breakdown, the
// algorithm adviser, and the grid autotuner.
func (m Model) Seconds(flops, msgs, words int64) float64 {
	return m.Gamma*float64(flops) + m.Alpha*float64(msgs) + m.Beta*float64(words)
}

// Edison returns constants approximating a NERSC Edison core (the
// paper's testbed): 2.4 GHz Ivy Bridge at ~19.2 Gflop/s/core, ~1 µs
// MPI latency, ~8 GB/s injection bandwidth per node.
func Edison() Model {
	return Model{
		Alpha: 1e-6,
		Beta:  8.0 / 8e9, // 8 bytes per word / 8 GB/s
		Gamma: 1.0 / 19.2e9,
	}
}

// Breakdown is a per-task cost summary of a (portion of a) run,
// aggregated over ranks; every array is indexed by Task.
type Breakdown struct {
	// MeasuredSeconds is the max-over-ranks wall time per task.
	MeasuredSeconds [numTasks]float64
	// ModeledSeconds is the max-over-ranks α-β-γ time per task.
	ModeledSeconds [numTasks]float64
	// Flops is the max-over-ranks flop count per task (compute tasks).
	Flops [numTasks]int64
	// Msgs and Words are the max-over-ranks traffic per task
	// (communication tasks).
	Msgs  [numTasks]int64
	Words [numTasks]int64
	// UnattributedSeconds is the max-over-ranks step wall time that no
	// task was charged for (Ledger.Unattributed).
	UnattributedSeconds float64
}

// rankCosts is one rank's Breakdown: its ledger's times and flops, its
// traffic per task (nil for a rank without a communicator), and the
// model's price of both.
func rankCosts(model Model, l *Ledger, ctr *mpi.Counters) Breakdown {
	b := Breakdown{Flops: l.Flops, UnattributedSeconds: l.Unattributed().Seconds()}
	if ctr != nil {
		for _, cat := range mpi.Categories() {
			if task := commTask(cat); task >= 0 {
				tr := ctr.Get(cat)
				b.Msgs[task] += tr.Msgs
				b.Words[task] += tr.Words
			}
		}
	}
	for t := range b.Flops {
		b.MeasuredSeconds[t] = l.Wall[t].Seconds()
		b.ModeledSeconds[t] = max(model.Gamma*float64(b.Flops[t]),
			model.Alpha*float64(b.Msgs[t])+model.Beta*float64(b.Words[t]))
	}
	return b
}

// rankTraffic is rank r's counters, nil when the run had no
// communicator.
func rankTraffic(traffic []*mpi.Counters, r int) *mpi.Counters {
	if traffic == nil {
		return nil
	}
	return traffic[r]
}

// Aggregate combines per-rank ledgers and traffic counters into a
// Breakdown under the given model: every cost is the maximum over
// ranks. traffic may be nil (sequential runs) or must parallel
// ledgers.
func Aggregate(model Model, ledgers []*Ledger, traffic []*mpi.Counters) *Breakdown {
	b := &Breakdown{}
	for r, l := range ledgers {
		rank := rankCosts(model, l, rankTraffic(traffic, r))
		for t := range b.Flops {
			b.MeasuredSeconds[t] = max(b.MeasuredSeconds[t], rank.MeasuredSeconds[t])
			b.ModeledSeconds[t] = max(b.ModeledSeconds[t], rank.ModeledSeconds[t])
			b.Flops[t] = max(b.Flops[t], rank.Flops[t])
			b.Msgs[t] = max(b.Msgs[t], rank.Msgs[t])
			b.Words[t] = max(b.Words[t], rank.Words[t])
		}
		b.UnattributedSeconds = max(b.UnattributedSeconds, rank.UnattributedSeconds)
	}
	return b
}

// legendSum adds per-task seconds in Tasks() order: float addition is
// not associative, and reports diff totals byte-for-byte.
func legendSum(seconds *[numTasks]float64) float64 {
	s := 0.0
	for _, task := range legend {
		s += seconds[task]
	}
	return s
}

// MeasuredTotal sums measured seconds across tasks.
func (b *Breakdown) MeasuredTotal() float64 { return legendSum(&b.MeasuredSeconds) }

// ModeledTotal sums modeled seconds across tasks.
func (b *Breakdown) ModeledTotal() float64 { return legendSum(&b.ModeledSeconds) }

// Scale divides all costs by n (e.g. to convert a multi-iteration
// measurement into per-iteration numbers).
func (b *Breakdown) Scale(n int) *Breakdown {
	if n <= 0 {
		panic("perf: Scale by non-positive count")
	}
	out := *b
	for t := range out.Flops {
		out.MeasuredSeconds[t] /= float64(n)
		out.ModeledSeconds[t] /= float64(n)
		out.Flops[t] /= int64(n)
		out.Msgs[t] /= int64(n)
		out.Words[t] /= int64(n)
	}
	out.UnattributedSeconds /= float64(n)
	return &out
}

// Views lists the valid Breakdown.Format views.
func Views() []string { return []string{"measured", "modeled", "both"} }

// Format renders the breakdown as an aligned table in the paper-
// legend order of Tasks(). view selects "measured", "modeled", or
// "both"; any other value is an error. The views with a measured
// column end with the step time no task accounts for.
func (b *Breakdown) Format(view string) (string, error) {
	var sb strings.Builder
	tasks := Tasks()
	switch view {
	case "measured":
		fmt.Fprintf(&sb, "%-8s %12s\n", "task", "measured(s)")
		for _, t := range tasks {
			fmt.Fprintf(&sb, "%-8s %12.6f\n", t, b.MeasuredSeconds[t])
		}
		fmt.Fprintf(&sb, "%-8s %12.6f\n", "total", b.MeasuredTotal())
		fmt.Fprintf(&sb, "%-12s %8.6f\n", "unattributed", b.UnattributedSeconds)
	case "modeled":
		fmt.Fprintf(&sb, "%-8s %12s %14s %10s %14s\n", "task", "modeled(s)", "flops", "msgs", "words")
		for _, t := range tasks {
			fmt.Fprintf(&sb, "%-8s %12.6f %14d %10d %14d\n", t, b.ModeledSeconds[t], b.Flops[t], b.Msgs[t], b.Words[t])
		}
		fmt.Fprintf(&sb, "%-8s %12.6f\n", "total", b.ModeledTotal())
	case "both":
		fmt.Fprintf(&sb, "%-8s %12s %12s %14s %10s %14s\n", "task", "measured(s)", "modeled(s)", "flops", "msgs", "words")
		for _, t := range tasks {
			fmt.Fprintf(&sb, "%-8s %12.6f %12.6f %14d %10d %14d\n", t, b.MeasuredSeconds[t], b.ModeledSeconds[t], b.Flops[t], b.Msgs[t], b.Words[t])
		}
		fmt.Fprintf(&sb, "%-8s %12.6f %12.6f\n", "total", b.MeasuredTotal(), b.ModeledTotal())
		fmt.Fprintf(&sb, "%-12s %8.6f\n", "unattributed", b.UnattributedSeconds)
	default:
		return "", fmt.Errorf("perf: unknown view %q (want %s)", view, strings.Join(Views(), ", "))
	}
	return sb.String(), nil
}

// TaskCost is the JSON-friendly per-task view of a breakdown, keyed
// by task name in run reports.
type TaskCost struct {
	MeasuredSeconds float64 `json:"measured_seconds"`
	ModeledSeconds  float64 `json:"modeled_seconds"`
	Flops           int64   `json:"flops,omitempty"`
	Msgs            int64   `json:"msgs,omitempty"`
	Words           int64   `json:"words,omitempty"`
}

// ByTask exports the breakdown as a name-keyed map for machine-
// readable reports. Tasks with no recorded cost are omitted.
func (b *Breakdown) ByTask() map[string]TaskCost {
	out := map[string]TaskCost{}
	for _, t := range Tasks() {
		c := TaskCost{
			MeasuredSeconds: b.MeasuredSeconds[t],
			ModeledSeconds:  b.ModeledSeconds[t],
			Flops:           b.Flops[t],
			Msgs:            b.Msgs[t],
			Words:           b.Words[t],
		}
		if c == (TaskCost{}) {
			continue
		}
		out[t.String()] = c
	}
	return out
}

// RankStats is one rank's per-iteration task costs, for the per-rank
// section of run reports (the skew view Figure 3 aggregates away).
type RankStats struct {
	Rank  int                 `json:"rank"`
	Tasks map[string]TaskCost `json:"tasks"`
}

// PerRank builds per-rank task costs from the same inputs as
// Aggregate, divided by iters to yield per-iteration values.
func PerRank(model Model, ledgers []*Ledger, traffic []*mpi.Counters, iters int) []RankStats {
	out := make([]RankStats, len(ledgers))
	for r, l := range ledgers {
		b := rankCosts(model, l, rankTraffic(traffic, r))
		out[r] = RankStats{Rank: r, Tasks: b.Scale(max(iters, 1)).ByTask()}
	}
	return out
}
