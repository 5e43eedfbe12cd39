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

// bestISA probes CPUID for the strongest dispatch level this machine
// can run. AVX2 requires the CPU flag (leaf 7 EBX bit 5), AVX and
// OSXSAVE (leaf 1 ECX bits 28/27), and the OS to have enabled XMM+YMM
// state saving (XCR0 bits 1 and 2 via XGETBV); without any of them the
// portable loops run.
func bestISA() int32 {
	maxLeaf, _, _, _ := cpuidAsm(0, 0)
	if maxLeaf < 7 {
		return isaGeneric
	}
	_, _, ecx1, _ := cpuidAsm(1, 0)
	const (
		osxsaveBit = 1 << 27
		avxBit     = 1 << 28
	)
	if ecx1&osxsaveBit == 0 || ecx1&avxBit == 0 {
		return isaGeneric
	}
	if xcr0, _ := xgetbv0(); xcr0&0x6 != 0x6 { // XMM and YMM state
		return isaGeneric
	}
	_, ebx7, _, _ := cpuidAsm(7, 0)
	const avx2Bit = 1 << 5
	if ebx7&avx2Bit == 0 {
		return isaGeneric
	}
	return isaAVX2
}
