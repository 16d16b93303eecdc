package main

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// kernelTicker is a Linux timerfd read through the Go netpoller. It paces
// the open loop: the Go runtime wakes a sleeping goroutine only to the
// millisecond when its scheduler is idle, and that lateness would read as
// server latency, while a readable timerfd wakes the poller at once and
// holds no processor while it waits.
type kernelTicker struct {
	f *os.File
}

// newKernelTicker starts a timer whose k-th expiration falls k·period
// after the returned start time.
func newKernelTicker(period time.Duration) (*kernelTicker, time.Time, error) {
	const (
		clockMonotonic = 1
		timerAbstime   = 1
		flags          = syscall.O_NONBLOCK | syscall.O_CLOEXEC // TFD_NONBLOCK | TFD_CLOEXEC
	)
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, flags, 0)
	if errno != 0 {
		return nil, time.Time{}, fmt.Errorf("timerfd_create: %w", errno)
	}
	// The expirations are set on the kernel's monotonic clock from a
	// reading taken next to start, so the schedule and the Go clock the
	// latencies are read from agree to within the two reads.
	var now syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockMonotonic, uintptr(unsafe.Pointer(&now)), 0); errno != 0 {
		syscall.Close(int(fd))
		return nil, time.Time{}, fmt.Errorf("clock_gettime: %w", errno)
	}
	start := time.Now()
	spec := [2]syscall.Timespec{ // interval, first expiration
		syscall.NsecToTimespec(int64(period)),
		syscall.NsecToTimespec(now.Nano() + int64(period)),
	}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, fd, timerAbstime,
		uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		syscall.Close(int(fd))
		return nil, time.Time{}, fmt.Errorf("timerfd_settime: %w", errno)
	}
	// A non-blocking descriptor makes the File pollable.
	return &kernelTicker{f: os.NewFile(fd, "timerfd")}, start, nil
}

// wait blocks until the timer has expired at least once more and returns
// how many expirations passed since the last wait.
func (k *kernelTicker) wait() (uint64, error) {
	var b [8]byte
	if _, err := io.ReadFull(k.f, b[:]); err != nil {
		return 0, err
	}
	return binary.NativeEndian.Uint64(b[:]), nil
}

func (k *kernelTicker) close() { k.f.Close() }
