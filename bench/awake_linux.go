package bench

import (
	"syscall"
	"unsafe"
)

// schedIdle is Linux's SCHED_IDLE policy.
const schedIdle = 5

// idleOn pins the calling thread to the CPU and moves it into the
// scheduler's idle class.
func idleOn(cpu int) error {
	var mask [16]uint64 // 1024 CPUs
	mask[cpu/64%len(mask)] = 1 << (cpu % 64)
	// Pinning may be refused (a restricted CPU set); the class matters.
	syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
	var param struct{ priority int32 }
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); errno != 0 {
		return errno
	}
	return nil
}
