package main

import (
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"

	"hpcnmf/internal/mat"
)

// hostStamp is written into every result file: a number only counts
// when the host it was measured on is recorded beside it.
type hostStamp struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	ISA        string `json:"isa"`
	FMA        bool   `json:"fma_active"`
	GoVersion  string `json:"go_version"`
	GitCommit  string `json:"git_commit"`
	Kernel     string `json:"kernel"`
	LLCBytes   int64  `json:"llc_bytes"`
	// WallClockValid is false when fewer than two CPUs are available:
	// every timed arm assumes two ranks or two kernel threads can run
	// at once, so its wall-clock numbers mean nothing on one CPU.
	WallClockValid bool `json:"wall_clock_valid"`
	// Roofline says why the result carries operations per byte but no
	// roofline ratio (see README "Host stamp").
	Roofline string `json:"roofline"`
}

func stampHost() hostStamp {
	h := hostStamp{
		CPU:        cpuBrand(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		ISA:        mat.ISA(),
		FMA:        mat.FMAActive(),
		GoVersion:  runtime.Version(),
		GitCommit:  gitCommit(),
		Kernel:     firstLine("/proc/sys/kernel/osrelease"),
		LLCBytes:   llcBytes(),
	}
	h.WallClockValid = h.NProc >= 2 && h.GOMAXPROCS >= 2
	h.Roofline = "not measured: a bandwidth probe needs arrays of at least 4x the last-level cache (" +
		strconv.FormatInt(4*h.LLCBytes>>20, 10) + " MiB each here), which does not fit a run; ops/byte are computed from array sizes"
	return h
}

func firstLine(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	line, _, _ := strings.Cut(string(b), "\n")
	return strings.TrimSpace(line)
}

func cpuBrand() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit is the vcs revision the Go toolchain stamped into the
// binary; a checkout that is not a git repository has none.
func gitCommit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// llcBytes reads the size of the highest-level cache of CPU 0 from
// sysfs; 0 when the host does not expose it.
func llcBytes() int64 {
	var best int64
	bestLevel := 0
	for i := 0; i < 8; i++ {
		dir := "/sys/devices/system/cpu/cpu0/cache/index" + strconv.Itoa(i)
		level, err := strconv.Atoi(firstLine(dir + "/level"))
		if err != nil {
			continue
		}
		size := firstLine(dir + "/size")
		mult := int64(1)
		switch {
		case strings.HasSuffix(size, "K"):
			mult, size = 1<<10, strings.TrimSuffix(size, "K")
		case strings.HasSuffix(size, "M"):
			mult, size = 1<<20, strings.TrimSuffix(size, "M")
		}
		n, err := strconv.ParseInt(size, 10, 64)
		if err == nil && level > bestLevel {
			best, bestLevel = n*mult, level
		}
	}
	return best
}
