// Command obscheck validates observability artifacts so CI can assert
// them without external tooling: Prometheus text exposition (the
// promtool-style lint in internal/metrics) and Chrome trace_event JSON
// (the parser behind internal/trace exports).
//
//	obscheck -prom metrics.txt
//	curl -s :7600/metrics | obscheck -prom -
//	obscheck -trace run.trace.json -require cmd/nmfrun/obs.manifest
//
// A path of "-" reads the artifact from stdin. A -require manifest
// lists what an artifact promises, one `series <name>` (a sample of
// the -prom input) or `span <name>` (an event of the -trace input) per
// line, # comments allowed; every one the input lacks is named. Exit
// status is nonzero if any requested check fails.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"hpcnmf/internal/metrics"
	"hpcnmf/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr, os.Stdin); err != nil {
		fmt.Fprintf(os.Stderr, "obscheck: %v\n", err)
		os.Exit(1)
	}
}

// run is the whole command behind a testable seam; stdin backs the "-"
// pseudo-path.
func run(args []string, stdout, stderr io.Writer, stdin io.Reader) error {
	fs := flag.NewFlagSet("obscheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		promPath  = fs.String("prom", "", "Prometheus text exposition file to lint (\"-\" for stdin)")
		tracePath = fs.String("trace", "", "Chrome trace_event JSON file to validate (\"-\" for stdin)")
		require   = fs.String("require", "", "manifest `file` of \"series <name>\" / \"span <name>\" lines the -prom / -trace input must contain")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if *promPath == "" && *tracePath == "" {
		return fmt.Errorf("nothing to check: pass -prom and/or -trace")
	}
	if *promPath == "-" && *tracePath == "-" {
		return fmt.Errorf("only one artifact may come from stdin")
	}
	want, err := readManifest(*require)
	if err != nil {
		return err
	}
	have := map[string]bool{} // "<kind> <name>" for what the inputs hold, "<kind>" for each input given

	if *promPath != "" {
		if err := checkProm(*promPath, stdin, have); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "prom ok: %s\n", *promPath)
	}
	if *tracePath != "" {
		tr, err := parseTrace(*tracePath, stdin)
		if err != nil {
			return err
		}
		have["span"] = true
		for _, ev := range tr.Events {
			have["span "+ev.Name] = true
		}
		fmt.Fprintf(stdout, "trace ok: %s (%d events, %d ranks, %d dropped)\n",
			*tracePath, len(tr.Events), tr.Ranks, tr.Dropped)
	}
	var missing []string
	for _, line := range want {
		if kind, _, _ := strings.Cut(line, " "); have[kind] && !have[line] {
			missing = append(missing, line)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("%s promises what the input lacks: %s", *require, strings.Join(missing, ", "))
	}
	return nil
}

// readManifest returns the `series <name>` and `span <name>` lines of a
// -require file, blank and # lines dropped; no path, no promises.
func readManifest(path string) (want []string, err error) {
	if path == "" {
		return nil, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.Join(strings.Fields(line), " ")
		kind, name, _ := strings.Cut(line, " ")
		switch {
		case line == "" || line[0] == '#':
		case (kind == "series" || kind == "span") && name != "":
			want = append(want, line)
		default:
			return nil, fmt.Errorf("%s:%d: want `series <name>` or `span <name>`, got %q", path, i+1, line)
		}
	}
	return want, nil
}

// open resolves a path, mapping "-" to stdin. The returned closer is a
// no-op for stdin.
func open(path string, stdin io.Reader) (io.Reader, func() error, error) {
	if path == "-" {
		return stdin, func() error { return nil }, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	return f, f.Close, nil
}

// checkProm lints the exposition and notes its sample names in have.
func checkProm(path string, stdin io.Reader, have map[string]bool) error {
	r, done, err := open(path, stdin)
	if err != nil {
		return err
	}
	defer done()
	data, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if err := metrics.LintPrometheus(bytes.NewReader(data)); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	have["series"] = true
	for _, line := range strings.Split(string(data), "\n") {
		if line != "" && line[0] != '#' {
			have["series "+line[:strings.IndexAny(line+" ", "{ ")]] = true
		}
	}
	return nil
}

func parseTrace(path string, stdin io.Reader) (*trace.Trace, error) {
	r, done, err := open(path, stdin)
	if err != nil {
		return nil, err
	}
	defer done()
	tr, err := trace.ParseChrome(r)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return tr, nil
}
