// Command benchmark is the repository's one benchmark: four named
// workloads measured from outside the program, through the public
// facade and by timed calls into each layer's exported functions.
// BENCHMARK.json at the repository root names the workloads and every
// metric; README.md in this directory says why each exists.
//
//	bash benchmark/run.sh                         all four workloads, end-to-end metrics
//	bash benchmark/run.sh --trace 1               the traced run: per-layer metrics + span files
//	bash benchmark/run.sh --workload dense_mu --seed 7 --seconds 20 --trace 0
//	bash benchmark/run.sh --aa                    two sets on the same code, compared against the bounds
//
// With --workload the last line of standard output is one JSON object
// {correct, attempted, failed, metrics}.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"time"
)

// spec mirrors BENCHMARK.json; the benchmark reads it at start-up so
// the names it emits cannot drift from the names the file declares.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(root string) (*spec, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// config is one invocation's arguments.
type config struct {
	root     string
	workload string
	seed     uint64
	seconds  int
	trace    bool
	smoke    bool
}

// workload is one named set of inputs. setup builds everything that
// precedes the first timed operation and is called several times in a
// run (each call replaces the state of the one before, after
// teardown) so that setup_s rests on several set-ups; measure is the untraced
// timed section and emits the end-to-end metrics; layers is the
// traced run and emits the per-layer metrics.
type workload interface {
	setup(e *env) error
	teardown()
	measure(e *env, budget time.Duration) error
	layers(e *env, budget time.Duration) error
}

var workloads = map[string]func() workload{
	"dense_mu":    newDenseMU,
	"sparse_bpp":  newSparseBPP,
	"ooc_lowk":    newOOCLowK,
	"serve_fleet": newServeFleet,
}

// offPath lists, per workload, the layers (or single metrics) whose
// code the workload never calls. The driver's contract wants every
// per-layer metric from every workload, so these are emitted as 0:
// zero work done on this workload. README.md repeats the table.
var offPath = map[string][]string{
	"dense_mu": {"sparse", "ooc", "serve", "cluster", "store",
		"mat.panel_mulabt_gflops", "mat.panel_mulatb_gflops", "par.spmm_speedup_2t"},
	"sparse_bpp": {"ooc", "serve", "cluster", "store",
		"mat.mulabt_gflops", "mat.mulatb_gflops", "mat.mul_gflops", "mat.panel_mulabt_gflops", "mat.panel_mulatb_gflops",
		"par.mulatb_speedup_2t", "par.mulabt_speedup_2t"},
	"ooc_lowk": {"sparse", "mpi", "costmodel", "serve", "cluster", "store",
		"mat.mul_gflops", "par.spmm_speedup_2t", "core.scaling_eff"},
	"serve_fleet": {"mat", "par", "sparse", "nnls", "mpi", "costmodel", "ooc",
		"core.scaling_eff", "core.replay_cover"},
}

func main() {
	var c config
	var traceFlag int
	var aa bool
	flag.StringVar(&c.root, "root", "", "repository root (holds BENCHMARK.json); default: the working directory or its parent")
	flag.StringVar(&c.workload, "workload", "", "run one workload in this process (default: all, each in a child process)")
	flag.Uint64Var(&c.seed, "seed", 42, "seed of the input generators and the arrival schedule")
	flag.IntVar(&c.seconds, "seconds", 0, "length of the timed section (default: run_seconds of BENCHMARK.json)")
	flag.IntVar(&traceFlag, "trace", 0, "1 = the traced run: per-layer metrics and span files; 0 = end-to-end metrics")
	flag.BoolVar(&c.smoke, "smoke", false, "tiny inputs and the shortest phases (for tests)")
	flag.BoolVar(&aa, "aa", false, "run the whole set twice on the same code and fail if two medians differ by more than a bound")
	flag.Parse()
	c.trace = traceFlag != 0
	if err := run(c, aa, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(c config, aa bool, stdout io.Writer) error {
	if c.root == "" {
		c.root = "."
		if _, err := os.Stat("BENCHMARK.json"); err != nil {
			c.root = ".."
		}
	}
	root, err := filepath.Abs(c.root)
	if err != nil {
		return err
	}
	c.root = root
	sp, err := loadSpec(c.root)
	if err != nil {
		return err
	}
	if c.seconds <= 0 {
		c.seconds = sp.RunSeconds
	}
	if c.workload != "" {
		res, err := runWorkload(c, sp, stdout)
		if err != nil {
			return err
		}
		line, err := json.Marshal(res)
		if err != nil {
			return err
		}
		_, err = fmt.Fprintf(stdout, "%s\n", line)
		return err
	}
	first, err := runSet(c, sp, stdout)
	if err != nil || !aa {
		return err
	}
	second, err := runSet(c, sp, stdout)
	if err != nil {
		return err
	}
	return compareSets(sp, first, second, stdout)
}

// result is the last line of standard output of a --workload run.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// setupRepeats is how many times a run sets up. setup_s is the best
// of them, like every other timing (README "Steadiness"), so that one
// slow disk flush or a disturbed second does not decide it.
const setupRepeats = 5

func runWorkload(c config, sp *spec, stdout io.Writer) (*result, error) {
	mk, ok := workloads[c.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", c.workload)
	}
	declared := false
	for _, w := range sp.Workloads {
		declared = declared || w.Name == c.workload
	}
	if !declared {
		return nil, fmt.Errorf("workload %q is not declared in BENCHMARK.json", c.workload)
	}
	e, err := newEnv(c, sp)
	if err != nil {
		return nil, err
	}
	defer e.close()
	host := stampHost()
	if !host.WallClockValid {
		fmt.Fprintf(os.Stderr, "benchmark: nproc=%d GOMAXPROCS=%d: wall-clock results are INVALID below 2 CPUs\n", host.NProc, host.GOMAXPROCS)
	}

	w := mk()
	root := e.rec.begin("run", nil, 0)
	var setups []float64
	repeats := setupRepeats
	if c.smoke {
		repeats = 1
	}
	for i := 0; i < repeats; i++ {
		if i > 0 {
			w.teardown()
			settle()
		}
		sp := e.rec.begin("setup", root, i)
		e.cur = sp
		start := time.Now()
		if err := w.setup(e); err != nil {
			return nil, fmt.Errorf("%s: setup: %w", c.workload, err)
		}
		setups = append(setups, time.Since(start).Seconds())
		sp.end()
	}
	defer w.teardown()
	settle()

	budget := time.Duration(c.seconds) * time.Second
	phase := e.rec.begin("timed", root, 0)
	e.cur = phase
	if c.trace {
		if err = w.layers(e, budget); err == nil {
			e.offPath(offPath[c.workload]...)
		}
	} else {
		e.best("setup_s", setups, false)
		err = w.measure(e, budget)
		if err == nil {
			e.set("peak_rss_mb", peakRSSMiB())
		}
	}
	phase.end()
	root.end()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", c.workload, err)
	}

	res := e.result()
	e.print(stdout, host)
	if err := e.writeFiles(host, res); err != nil {
		return nil, err
	}
	return res, nil
}

// peakRSSMiB is the process's own high-water resident set.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runSet runs every declared workload, each in a re-exec'd child so
// that peak RSS is per workload, and returns the children's results.
func runSet(c config, sp *spec, stdout io.Writer) (map[string]*result, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	out := map[string]*result{}
	for _, w := range sp.Workloads {
		args := []string{
			"--root", c.root, "--workload", w.Name,
			"--seed", fmt.Sprint(c.seed), "--seconds", fmt.Sprint(c.seconds),
		}
		if c.trace {
			args = append(args, "--trace", "1")
		}
		if c.smoke {
			args = append(args, "--smoke")
		}
		cmd := exec.Command(exe, args...)
		var buf bytes.Buffer
		cmd.Stdout = io.MultiWriter(stdout, &buf)
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("workload %s: %w", w.Name, err)
		}
		res, err := lastResult(buf.Bytes())
		if err != nil {
			return nil, fmt.Errorf("workload %s: %w", w.Name, err)
		}
		if !res.Correct || res.Failed > 0 {
			return nil, fmt.Errorf("workload %s: correct=%v failed=%d of %d", w.Name, res.Correct, res.Failed, res.Attempted)
		}
		out[w.Name] = res
	}
	return out, nil
}

// lastResult parses the last line of a child's standard output.
func lastResult(out []byte) (*result, error) {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if t := strings.TrimSpace(sc.Text()); t != "" {
			last = t
		}
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, fmt.Errorf("last output line is not a result: %w", err)
	}
	return &res, nil
}

// compareSets is the --aa check: the same code, measured twice, must
// agree on every end-to-end metric within the bound BENCHMARK.json
// fixes for it.
func compareSets(sp *spec, a, b map[string]*result, stdout io.Writer) error {
	var bad []string
	fmt.Fprintf(stdout, "\nA/A: second set against the first (same code)\n")
	for _, w := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			va, vb := a[w.Name].Metrics[m.Name].Value, b[w.Name].Metrics[m.Name].Value
			worse := (vb - va) / va
			if m.Better == "higher" {
				worse = (va - vb) / va
			}
			verdict := "ok"
			if worse > m.Bound {
				verdict = "OUTSIDE BOUND"
				bad = append(bad, w.Name+"/"+m.Name)
			}
			fmt.Fprintf(stdout, "  %-12s %-16s %14.6g %14.6g  worse by %+7.2f%% (bound %.0f%%) %s\n",
				w.Name, m.Name, va, vb, 100*worse, 100*m.Bound, verdict)
		}
	}
	if len(bad) > 0 {
		return errors.New("A/A medians differ by more than the bound: " + strings.Join(bad, ", "))
	}
	return nil
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
