//go:build amd64

package cpufeat

// AVX2 reports whether the CPU and the OS support AVX2 (the YMM state is
// saved across context switches).
var AVX2 = detectAVX2()

// cpuid executes the CPUID instruction (implemented in cpufeat_amd64.s).
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0 (implemented in
// cpufeat_amd64.s).
func xgetbv() (eax, edx uint32)

func detectAVX2() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, c, _ := cpuid(1, 0)
	const osxsave = 1 << 27
	const avx = 1 << 28
	if c&osxsave == 0 || c&avx == 0 {
		return false
	}
	if eax, _ := xgetbv(); eax&6 != 6 { // OS saves XMM+YMM state
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return b&(1<<5) != 0 // AVX2
}
