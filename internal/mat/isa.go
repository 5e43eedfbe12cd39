package mat

import (
	"fmt"
	"os"
	"slices"
	"strings"
	"sync/atomic"
)

// CPU feature dispatch for the kernel primitives.
//
// The blocked kernels funnel every flop through five tiny primitives
// — the three axpys (axpy42, Axpy4, Axpy) behind the wide-output and
// sparse products, the 4×8 tile behind the skinny-output ones, and
// AtxNZ behind a lone projection — so one function-level dispatch
// point per primitive (dispatch_amd64.go) upgrades the whole kernel
// layer. Each primitive has two implementations:
//
//	generic — portable Go loops on math.FMA (the !amd64 build, CPUs
//	          without AVX2+FMA, and a test target)
//	avx2    — packed 4-wide VFMADD231PD assembly (AVX2 and FMA3)
//
// Both are fused: every term is one multiply-add rounded once, taken
// in the same per-element order, so their results are bitwise
// identical — the repo's parallelism contract extends across
// instruction sets, and the differential kernel tests pin either level
// against the scalar references without tolerances. A host therefore
// has exactly one arithmetic, and it is the same on every host: where
// the CPU has no FMA unit, math.FMA computes the fused result in
// software — correct and bitwise equal, only slow (DESIGN.md decision
// 12).
//
// The active level is chosen at startup from CPUID and can be
// overridden, GODEBUG-style, with the HPCNMF_CPU environment variable
// ("generic" or "avx2") — that is how CI exercises both dispatch paths
// on one machine. Tests use SetISA.

// Dispatch levels, weakest to strongest, and their names.
const (
	isaGeneric int32 = iota
	isaAVX2
)

var isaNames = [...]string{isaGeneric: "generic", isaAVX2: "avx2"}

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

// cpuWords are the CPUID and XCR0 words the dispatch level depends on.
type cpuWords struct {
	maxLeaf uint32 // leaf 0 EAX: the highest basic leaf
	ecx1    uint32 // leaf 1 ECX
	ebx7    uint32 // leaf 7 EBX
	xcr0    uint32 // XCR0 low word: the register state the OS saves
}

// The feature bits isaFor tests.
const (
	cpuFMA, cpuOSXSAVE, cpuAVX = 1 << 12, 1 << 27, 1 << 28 // leaf 1 ECX
	cpuAVX2                    = 1 << 5                    // leaf 7 EBX
	xcr0XMMYMM                 = 1<<1 | 1<<2               // XMM and YMM state
)

// isaFor is the strongest dispatch level a CPU with these words can
// run. avx2 executes VFMADD231PD on YMM registers, so it needs the AVX2
// and FMA flags, AVX with OSXSAVE, and the OS saving XMM and YMM state;
// without any of them the portable loops run.
func isaFor(w cpuWords) int32 {
	const leaf1 = cpuFMA | cpuOSXSAVE | cpuAVX
	if w.maxLeaf < 7 || w.ecx1&leaf1 != leaf1 || w.xcr0&xcr0XMMYMM != xcr0XMMYMM || w.ebx7&cpuAVX2 == 0 {
		return isaGeneric
	}
	return isaAVX2
}

// ISA reports the active kernel instruction set: "generic" or "avx2".
// Runs record it so results can be traced to the kernels that produced
// them.
func ISA() string { return isaNames[isaLevel.Load()] }

// SupportedISAs lists every dispatch target this machine can run,
// weakest first — the iteration set for differential kernel tests.
func SupportedISAs() []string { return slices.Clone(isaNames[:cpuBestLevel+1]) }

// SetISA selects the kernel instruction set by name: "generic" or
// "avx2" (case-insensitive). An unknown name, or a level the CPU
// lacks, returns an error and changes nothing.
func SetISA(spec string) error {
	level := int32(slices.Index(isaNames[:], strings.ToLower(strings.TrimSpace(spec))))
	if level < 0 {
		return fmt.Errorf("mat: unknown ISA %q (want generic or avx2)", spec)
	}
	if level > cpuBestLevel {
		return fmt.Errorf("mat: ISA %q not supported by this CPU (best: %s)", spec, isaNames[cpuBestLevel])
	}
	isaLevel.Store(level)
	return nil
}

// FMAActive reports whether the kernels fuse multiply-add. They do at
// every dispatch level, so it is always true; it stays because
// benchmark/host.go stamps it into every result.
func FMAActive() bool { return true }
