//go:build unix && !linux

package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"syscall"
	"time"
)

// pacer sleeps until absolute deadlines. Off Linux it falls back to the
// runtime timer, whose sub-millisecond sleeps overshoot: latencies from
// due time then include up to about a millisecond of pacing error, which
// loadgen.lag_p99_ms reports.
type pacer struct{}

func newPacer() pacer { return pacer{} }

func (pacer) release() {}

func (pacer) sleepUntil(t time.Time) { time.Sleep(time.Until(t)) }

// peakRSSMB is the process's peak resident set (ru_maxrss, in bytes on
// BSD-derived systems).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / (1 << 20)
}

func dieWithParent(*exec.Cmd) {}

// spin is the keep-awake child, which only Linux implements: it keeps
// no CPU awake, measures no reference work, and exits when stdin closes.
func spin() {
	fmt.Println("spinning 0")
	_, _ = bufio.NewReader(os.Stdin).ReadString(0)
	os.Exit(0)
}
