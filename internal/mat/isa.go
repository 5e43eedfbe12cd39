package mat

import (
	"fmt"
	"os"
	"strings"
	"sync/atomic"
)

// CPU feature dispatch for the kernel primitives.
//
// The blocked kernels funnel every flop through four tiny primitives
// — the three axpys (axpy42, Axpy4, Axpy) behind the wide-output and
// sparse products, and the 4×8 tile behind the skinny-output ones — so
// one function-level dispatch point per primitive upgrades the whole
// kernel layer. Each primitive has two implementations:
//
//	generic — portable Go loops (the !amd64 build, pre-AVX2 amd64
//	          CPUs, and a test target)
//	avx2    — packed 4-wide VMULPD/VADDPD assembly
//
// Both execute the same per-element operation sequence, so their
// results are bitwise identical — the repo's parallelism contract
// extends across instruction sets, and the differential kernel tests
// pin either level against the scalar references without tolerances.
// A host therefore has exactly one arithmetic; there is no fused
// multiply-add level (DESIGN.md decision 12 says why).
//
// The active level is chosen at startup from CPUID and can be
// overridden, GODEBUG-style, with the HPCNMF_CPU environment variable
// ("generic" or "avx2") — that is how CI exercises both dispatch paths
// on one machine. Tests use SetISA.

// Dispatch levels, weakest to strongest.
const (
	isaGeneric int32 = iota
	isaAVX2
)

var (
	// isaLevel is the active dispatch level: process-global (the
	// primitives have no room for a per-call flag), atomically read by
	// every kernel call.
	isaLevel atomic.Int32

	// cpuBestLevel describes the hardware (filled in by the per-arch
	// bestISA at init); an override cannot exceed it.
	cpuBestLevel int32
)

func init() {
	cpuBestLevel = bestISA()
	isaLevel.Store(cpuBestLevel)
	if v, ok := os.LookupEnv("HPCNMF_CPU"); ok {
		// An unsupported or misspelled override keeps the detected
		// level: degrading quietly beats crashing a batch run on a
		// machine the override wasn't written for.
		_ = SetISA(v)
	}
}

func isaName(level int32) string {
	if level == isaAVX2 {
		return "avx2"
	}
	return "generic"
}

// ISA reports the active kernel instruction set: "generic" or "avx2".
// Runs record it so results can be traced to the kernels that produced
// them.
func ISA() string { return isaName(isaLevel.Load()) }

// SupportedISAs lists every dispatch target this machine can run,
// weakest first — the iteration set for differential kernel tests.
func SupportedISAs() []string {
	out := []string{"generic"}
	if cpuBestLevel >= isaAVX2 {
		out = append(out, "avx2")
	}
	return out
}

// SetISA selects the kernel instruction set by name: "generic" or
// "avx2" (case-insensitive). An unknown name, or a level the CPU
// lacks, returns an error and changes nothing.
func SetISA(spec string) error {
	var level int32
	switch strings.ToLower(strings.TrimSpace(spec)) {
	case "generic":
		level = isaGeneric
	case "avx2":
		level = isaAVX2
	default:
		return fmt.Errorf("mat: unknown ISA %q (want generic or avx2)", spec)
	}
	if level > cpuBestLevel {
		return fmt.Errorf("mat: ISA %q not supported by this CPU (best: %s)", spec, isaName(cpuBestLevel))
	}
	isaLevel.Store(level)
	return nil
}

// FMAActive is always false: no kernel contracts mul+add. It stays
// only because benchmark/host.go stamps it into every result.
func FMAActive() bool { return false }
