//go:build amd64

package mat

// cpuidAsm executes CPUID with the given leaf/subleaf; xgetbv0 reads
// extended control register 0 (the OS-enabled SIMD state mask). Both
// are in cpu_amd64.s — the module has no dependencies, so feature
// detection is done by hand.
//
//go:noescape
func cpuidAsm(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

//go:noescape
func xgetbv0() (eax, edx uint32)

// bestISA reads the words isaFor decides on. XGETBV faults unless
// OSXSAVE is set, and leaf 7 is read only where it exists; a word left
// unread is zero, which isaFor refuses.
func bestISA() int32 {
	var w cpuWords
	w.maxLeaf, _, _, _ = cpuidAsm(0, 0)
	_, _, w.ecx1, _ = cpuidAsm(1, 0)
	if w.ecx1&cpuOSXSAVE != 0 {
		w.xcr0, _ = xgetbv0()
	}
	if w.maxLeaf >= 7 {
		_, w.ebx7, _, _ = cpuidAsm(7, 0)
	}
	return isaFor(w)
}
