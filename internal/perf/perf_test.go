package perf

import (
	"strings"
	"testing"
	"time"

	"hpcnmf/internal/mpi"
)

// charge books flops to a task through the only door there is: a phase.
func charge(l *Ledger, task Task, flops int64) *Ledger {
	l.Stop(l.Start(task), flops)
	return l
}

func TestTrackerAccumulates(t *testing.T) {
	l := new(Ledger)
	ph := l.Start(TaskMM)
	time.Sleep(2 * time.Millisecond)
	l.Stop(ph, 100)
	if l.Wall[TaskMM] < time.Millisecond {
		t.Fatalf("wall time %v too small", l.Wall[TaskMM])
	}
	if l.Wall[TaskNLS] != 0 {
		t.Fatal("unrelated task has wall time")
	}
	charge(l, TaskGram, 50)
	if l.Flops[TaskMM] != 100 || l.Flops[TaskGram] != 50 || l.Flops[TaskNLS] != 0 {
		t.Fatal("flop accounting wrong")
	}
	// A duration somebody else clocked is charged as given, and what a
	// step holds beyond its tasks is the unattributed remainder, exactly.
	l.Add(TaskTileWait, 3*time.Millisecond)
	if l.Wall[TaskTileWait] != 3*time.Millisecond {
		t.Fatalf("Add charged %v", l.Wall[TaskTileWait])
	}
	tasks := l.Wall[TaskMM] + l.Wall[TaskGram] + l.Wall[TaskTileWait]
	l.Step += tasks + 7
	if l.Step != tasks+7 || l.Unattributed() != 7 {
		t.Fatalf("step %v, tasks %v, unattributed %v, want remainder 7ns", l.Step, tasks, l.Unattributed())
	}
}

func TestTrackerSnapshotDiff(t *testing.T) {
	l := charge(new(Ledger), TaskMM, 10)
	l.Step += time.Second
	snap := *l
	charge(l, TaskMM, 7)
	l.Add(TaskNLS, 5)
	l.Step += time.Millisecond
	d := l.Sub(snap)
	if d.Flops[TaskMM] != 7 || d.Wall[TaskNLS] != 5 || d.Step != time.Millisecond {
		t.Fatalf("window = %d flops, %v NLS, %v step", d.Flops[TaskMM], d.Wall[TaskNLS], d.Step)
	}
	if l.Flops[TaskMM] != 17 || snap.Flops[TaskMM] != 10 {
		t.Fatal("Sub changed one of its operands")
	}
}

func TestEdisonConstants(t *testing.T) {
	m := Edison()
	if m.Alpha <= 0 || m.Beta <= 0 || m.Gamma <= 0 {
		t.Fatal("non-positive machine constants")
	}
	// α ≫ β ≫ γ must hold for the model to behave like a cluster.
	if !(m.Alpha > m.Beta && m.Beta > m.Gamma) {
		t.Fatalf("constants not ordered: α=%g β=%g γ=%g", m.Alpha, m.Beta, m.Gamma)
	}
}

func TestAggregateMaxesOverRanks(t *testing.T) {
	tr0 := charge(new(Ledger), TaskMM, 1000)
	tr1 := charge(new(Ledger), TaskMM, 3000)
	c0 := mpi.NewCounters()
	c0.Add(mpi.CatAllGather, 2, 100)
	c1 := mpi.NewCounters()
	c1.Add(mpi.CatAllGather, 5, 40)
	model := Model{Alpha: 1, Beta: 0.01, Gamma: 0.001}
	b := Aggregate(model, []*Ledger{tr0, tr1}, []*mpi.Counters{c0, c1})
	if b.Flops[TaskMM] != 3000 {
		t.Fatalf("Flops max = %d", b.Flops[TaskMM])
	}
	if b.Msgs[TaskAllGather] != 5 || b.Words[TaskAllGather] != 100 {
		t.Fatalf("traffic max = %d msgs %d words", b.Msgs[TaskAllGather], b.Words[TaskAllGather])
	}
	// Modeled AllGather: max(1·2+0.01·100, 1·5+0.01·40) = max(3, 5.4).
	if got := b.ModeledSeconds[TaskAllGather]; got != 5.4 {
		t.Fatalf("modeled AllGather = %v, want 5.4", got)
	}
	if got := b.ModeledSeconds[TaskMM]; got != 3.0 {
		t.Fatalf("modeled MM = %v, want 3.0", got)
	}
	// Unattributed time is each rank's own remainder, maxed like the rest.
	tr0.Step = tr0.Wall[TaskMM] + 2*time.Second
	tr1.Step = tr1.Wall[TaskMM] + time.Second
	b = Aggregate(model, []*Ledger{tr0, tr1}, nil)
	if b.UnattributedSeconds != 2 || b.Scale(4).UnattributedSeconds != 0.5 {
		t.Fatalf("unattributed = %v (÷4: %v), want 2 and 0.5", b.UnattributedSeconds, b.Scale(4).UnattributedSeconds)
	}
}

func TestAggregateExcludesSetup(t *testing.T) {
	c := mpi.NewCounters()
	c.Add(mpi.CatSetup, 100, 10000)
	b := Aggregate(Edison(), []*Ledger{new(Ledger)}, []*mpi.Counters{c})
	for task, v := range b.Msgs {
		if v != 0 {
			t.Fatalf("setup traffic leaked into %s", Task(task))
		}
	}
}

func TestScale(t *testing.T) {
	tr := charge(new(Ledger), TaskMM, 100)
	b := Aggregate(Edison(), []*Ledger{tr}, nil).Scale(4)
	if b.Flops[TaskMM] != 25 {
		t.Fatalf("scaled flops = %d", b.Flops[TaskMM])
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Scale(0) did not panic")
		}
	}()
	b.Scale(0)
}

func TestFormatViews(t *testing.T) {
	tr := charge(new(Ledger), TaskMM, 12345)
	c := mpi.NewCounters()
	c.Add(mpi.CatAllReduce, 3, 99)
	b := Aggregate(Edison(), []*Ledger{tr}, []*mpi.Counters{c})
	for _, view := range Views() {
		out, err := b.Format(view)
		if err != nil {
			t.Fatalf("view %q: %v", view, err)
		}
		if !strings.Contains(out, "total") {
			t.Fatalf("view %q missing total:\n%s", view, out)
		}
		if strings.Contains(out, "unattributed") != (view != "modeled") {
			t.Fatalf("view %q: the unattributed line belongs under a measured column only:\n%s", view, out)
		}
	}
	modeled, err := b.Format("modeled")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(modeled, "12345") {
		t.Fatal("modeled view missing flops column")
	}
}

func TestFormatRejectsUnknownView(t *testing.T) {
	b := Aggregate(Edison(), []*Ledger{new(Ledger)}, nil)
	if _, err := b.Format("bogus"); err == nil {
		t.Fatal("Format(\"bogus\") did not error")
	}
	if _, err := b.Format(""); err == nil {
		t.Fatal("Format(\"\") did not error")
	}
}

// Format must render tasks in the paper-legend order of Tasks(), not
// enum order: NLS before MM, MM before Gram.
func TestFormatUsesLegendOrder(t *testing.T) {
	b := Aggregate(Edison(), []*Ledger{new(Ledger)}, nil)
	out, err := b.Format("measured")
	if err != nil {
		t.Fatal(err)
	}
	var lastIdx int
	for i, task := range Tasks() {
		idx := strings.Index(out, task.String()+" ")
		if idx < 0 {
			idx = strings.Index(out, task.String())
		}
		if idx < 0 {
			t.Fatalf("task %s missing from output:\n%s", task, out)
		}
		if i > 0 && idx < lastIdx {
			t.Fatalf("task %s rendered before its legend predecessor:\n%s", task, out)
		}
		lastIdx = idx
	}
}

func TestByTaskOmitsEmptyAndKeepsCosts(t *testing.T) {
	tr := charge(new(Ledger), TaskMM, 1000)
	c := mpi.NewCounters()
	c.Add(mpi.CatAllGather, 2, 64)
	b := Aggregate(Edison(), []*Ledger{tr}, []*mpi.Counters{c})
	byTask := b.ByTask()
	if _, ok := byTask["NLS"]; ok {
		t.Fatal("ByTask kept a task with no recorded cost")
	}
	if byTask["MM"].Flops != 1000 {
		t.Fatalf("MM flops = %d, want 1000", byTask["MM"].Flops)
	}
	if byTask["AllG"].Words != 64 || byTask["AllG"].Msgs != 2 {
		t.Fatalf("AllG traffic = %+v, want 2 msgs / 64 words", byTask["AllG"])
	}
}

func TestPerRankScalesAndAttributes(t *testing.T) {
	tr0, tr1 := new(Ledger), charge(new(Ledger), TaskMM, 4000)
	c0, c1 := mpi.NewCounters(), mpi.NewCounters()
	c1.Add(mpi.CatAllReduce, 8, 160)
	ranks := PerRank(Edison(), []*Ledger{tr0, tr1}, []*mpi.Counters{c0, c1}, 2)
	if len(ranks) != 2 {
		t.Fatalf("PerRank returned %d entries, want 2", len(ranks))
	}
	if ranks[0].Rank != 0 || ranks[1].Rank != 1 {
		t.Fatal("PerRank rank attribution wrong")
	}
	if got := ranks[1].Tasks["MM"].Flops; got != 2000 {
		t.Fatalf("rank 1 MM flops/iter = %d, want 2000 (4000 over 2 iters)", got)
	}
	if got := ranks[1].Tasks["AllR"].Msgs; got != 4 {
		t.Fatalf("rank 1 AllR msgs/iter = %d, want 4", got)
	}
	if len(ranks[0].Tasks) != 0 {
		t.Fatalf("idle rank has tasks: %+v", ranks[0].Tasks)
	}
}

func TestTaskStrings(t *testing.T) {
	want := map[Task]string{
		TaskMM: "MM", TaskNLS: "NLS", TaskGram: "Gram",
		TaskAllGather: "AllG", TaskReduceScatter: "RedSc", TaskAllReduce: "AllR",
		TaskTileWait: "TileWait", TaskOther: "Other",
	}
	for task, label := range want {
		if task.String() != label {
			t.Errorf("%d.String() = %q, want %q", task, task.String(), label)
		}
	}
	if len(Tasks()) != int(numTasks) {
		t.Fatalf("Tasks() returned %d entries", len(Tasks()))
	}
}
