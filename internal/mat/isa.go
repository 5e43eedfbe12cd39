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
// kernel layer. Three instruction-set levels exist:
//
//	generic — portable Go loops (the !amd64 build, and a test target)
//	sse2    — packed 2-wide MULPD/ADDPD axpys (the amd64 baseline);
//	          the tile runs its portable loop
//	avx2    — packed 4-wide VMULPD/VADDPD
//
// All three execute the same per-element operation sequence, so their
// results are bitwise identical — the repo's parallelism contract
// extends across instruction sets, and the differential kernel tests
// pin any level against the scalar references without tolerances.
//
// FMA is different: contracting mul+add into one rounding step changes
// results (usually for the better), so it breaks the bitwise contract.
// It is therefore opt-in (core.Options.AllowFMA or HPCNMF_CPU=fma),
// only layered on top of the avx2 level, applied to every primitive
// alike (a run never mixes contracted and uncontracted products), and
// conformance-tested with tolerances instead of equality.
//
// The active level is chosen at startup from CPUID and can be
// overridden, GODEBUG-style, with the HPCNMF_CPU environment variable
// ("generic", "sse2", "avx2", or "fma" / "avx2+fma") — that is how CI
// exercises every dispatch path on one machine. Tests use SetISA.

// Dispatch levels, weakest to strongest. Values are ordered so levels
// compare with <.
const (
	isaGeneric int32 = iota
	isaSSE2
	isaAVX2
)

var (
	// isaLevel is the active dispatch level; fmaOn allows fused
	// multiply-add contraction on top of the avx2 level. Both are
	// process-global (the primitives have no room for a per-call
	// flag), atomically read by every kernel call.
	isaLevel atomic.Int32
	fmaOn    atomic.Bool

	// cpuBestLevel and cpuHasFMA describe the hardware (filled in by
	// the per-arch bestISA at init); overrides cannot exceed them.
	cpuBestLevel int32
	cpuHasFMA    bool
)

func init() {
	cpuBestLevel, cpuHasFMA = bestISA()
	isaLevel.Store(cpuBestLevel)
	if v, ok := os.LookupEnv("HPCNMF_CPU"); ok {
		// An unsupported or misspelled override keeps the detected
		// level: degrading quietly beats crashing a batch run on a
		// machine the override wasn't written for.
		_ = SetISA(v)
	}
}

func isaName(level int32) string {
	switch level {
	case isaSSE2:
		return "sse2"
	case isaAVX2:
		return "avx2"
	default:
		return "generic"
	}
}

// ISA reports the active kernel instruction set: "generic", "sse2",
// "avx2", or "avx2+fma". Runs record it so results can be traced to
// the kernels that produced them.
func ISA() string {
	name := isaName(isaLevel.Load())
	if FMAActive() {
		name += "+fma"
	}
	return name
}

// SupportedISAs lists every dispatch target this machine can run,
// weakest first — the iteration set for differential kernel tests.
func SupportedISAs() []string {
	out := []string{"generic"}
	for l := isaSSE2; l <= cpuBestLevel; l++ {
		out = append(out, isaName(l))
	}
	if cpuHasFMA && cpuBestLevel >= isaAVX2 {
		out = append(out, "avx2+fma")
	}
	return out
}

// SetISA selects the kernel instruction set by name: "generic",
// "sse2", "avx2", "fma", or a combination like "avx2+fma" (comma also
// accepted). "fma" implies the avx2 level. Selecting a level the CPU
// lacks returns an error and changes nothing. Note FMA breaks bitwise
// reproducibility with the other levels; see the package comment above.
func SetISA(spec string) error {
	level := int32(-1)
	fma := false
	for _, tok := range strings.FieldsFunc(strings.ToLower(spec), func(r rune) bool {
		return r == '+' || r == ','
	}) {
		switch strings.TrimSpace(tok) {
		case "generic":
			level = isaGeneric
		case "sse2":
			level = isaSSE2
		case "avx2":
			level = isaAVX2
		case "fma":
			fma = true
		case "":
		default:
			return fmt.Errorf("mat: unknown ISA %q (want generic, sse2, avx2, fma)", tok)
		}
	}
	if fma && level < 0 {
		level = isaAVX2
	}
	if level < 0 {
		return fmt.Errorf("mat: empty ISA spec %q", spec)
	}
	if level > cpuBestLevel {
		return fmt.Errorf("mat: ISA %q not supported by this CPU (best: %s)", spec, isaName(cpuBestLevel))
	}
	if fma && !cpuHasFMA {
		return fmt.Errorf("mat: FMA not supported by this CPU")
	}
	isaLevel.Store(level)
	fmaOn.Store(fma)
	return nil
}

// SetFMA opts fused multiply-add contraction in or out and returns the
// previous setting. It only takes effect when the avx2 level is active
// and the CPU has FMA; FMA results differ from the bitwise-identical
// generic/sse2/avx2 family by at most one rounding per product term.
// The toggle is process-global — enabling it for one run enables it
// for every concurrent run in the process.
func SetFMA(on bool) bool {
	prev := fmaOn.Load()
	if on && !cpuHasFMA {
		return prev
	}
	fmaOn.Store(on)
	return prev
}

// FMAActive reports whether kernel calls are currently contracting
// through FMA.
func FMAActive() bool {
	return fmaOn.Load() && isaLevel.Load() >= isaAVX2
}
