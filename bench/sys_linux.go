package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

const (
	prSetTimerSlack    = 29 // prctl's PR_SET_TIMERSLACK
	schedIdle          = 5  // SCHED_IDLE
	clockThreadCPUTime = 3  // CLOCK_THREAD_CPUTIME_ID
)

// spin runs the keep-awake child: one thread per CPU spinning under
// SCHED_IDLE, which the kernel runs only when a CPU would otherwise go
// idle and preempts the moment anything else wakes. On a virtual host a
// halted CPU takes tens to hundreds of microseconds to wake, varying
// with the host's load, and that wake-up would otherwise set every
// sub-millisecond timing; keeping CPUs out of idle is the usual remedy
// (like idle=poll).
//
// The threads spin on reference work (refWork) in short batches and
// time each on their own CPU clock, so a batch's cost excludes the time
// the thread was preempted: the costs measure the machine's speed while
// the benchmark runs. Each batch starts with an untimed unit that
// refills the caches the preempting work evicted.
//
// It prints how many threads took the idle policy — a thread that is
// refused it does not spin — then answers every line on stdin with a
// reading (refCosts.serve) and exits when stdin closes.
func spin() {
	n := runtime.NumCPU()
	costs := &refCosts{}
	ok := make(chan bool, n)
	for i := 0; i < n; i++ {
		go func() {
			runtime.LockOSThread()
			param := int32(0)
			_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param)))
			ok <- errno == 0
			if errno != 0 {
				return
			}
			w := newRefWork()
			for {
				w.unit()
				t := threadCPU()
				for j := 0; j < refBatch; j++ {
					w.unit()
				}
				costs.add(float64(threadCPU()-t) / 1e3 / refBatch)
			}
		}()
	}
	idle := 0
	for i := 0; i < n; i++ {
		if <-ok {
			idle++
		}
	}
	fmt.Printf("spinning %d\n", idle)
	costs.serve(bufio.NewReader(os.Stdin), os.Stdout)
	os.Exit(0)
}

// refBatch is how many reference units a timed batch holds: short
// enough (~0.1 ms) that most batches run unpreempted even on a busy CPU.
const refBatch = 2

// threadCPU is the calling thread's CPU time in nanoseconds.
func threadCPU() int64 {
	var ts syscall.Timespec
	_, _, _ = syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return ts.Nano()
}

// pacer sleeps until absolute deadlines with microsecond precision.
// The Go runtime rounds sub-millisecond timer sleeps up to about a
// millisecond, which would swamp sub-millisecond latencies measured
// from their due time; nanosleep on a thread whose timer slack is 1 ns
// wakes within a few microseconds.
type pacer struct{}

// newPacer locks the calling goroutine to its thread and sets the
// thread's timer slack; release undoes both. Keeping the thread alive
// (rather than letting a locked goroutine exit, which ends its thread)
// matters: a child started from a thread that exits is killed by its
// parent-death signal.
func newPacer() pacer {
	runtime.LockOSThread()
	_, _, _ = syscall.Syscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
	return pacer{}
}

// release restores the thread's default timer slack and unlocks it.
func (pacer) release() {
	_, _, _ = syscall.Syscall(syscall.SYS_PRCTL, prSetTimerSlack, 0, 0)
	runtime.UnlockOSThread()
}

func (pacer) sleepUntil(t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
// Not ru_maxrss: that survives execve, and os/exec starts children
// sharing the parent's address space until exec, so a child's
// ru_maxrss would count the parent's resident set.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// dieWithParent makes the child exit if the benchmark dies first.
func dieWithParent(cmd *exec.Cmd) {
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}
