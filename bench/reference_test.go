package main

import (
	"bufio"
	"math"
	"strings"
	"testing"
)

func TestCalibratedCPUScalesEachWindow(t *testing.T) {
	p := &pass{
		cpuAt: []float64{10, 11, 12.5, 13}, // 1 s, 1.5 s and 0.5 s of CPU
		refAt: []refReading{
			{US: refNominalUS, Batches: 100},       // at reference speed
			{US: 1.5 * refNominalUS, Batches: 100}, // 1.5 times slower
			{US: 1000, Batches: refMinBatches - 1}, // too few batches to use
		},
	}
	ms, ref := p.calibratedCPU()
	// The last window takes the median of the usable readings, 1.25
	// times slower than reference speed: 500 ms count as 400.
	if want := 1000 + 1000 + 400.0; math.Abs(ms-want) > 1e-9 {
		t.Errorf("calibrated CPU = %v ms, want %v", ms, want)
	}
	if want := 1.25 * refNominalUS; ref != want {
		t.Errorf("reference cost = %v, want %v", ref, want)
	}
}

func TestCalibratedCPUWithoutReadingsIsAsMeasured(t *testing.T) {
	p := &pass{cpuAt: []float64{2, 3.5}, refAt: []refReading{{}}}
	if ms, ref := p.calibratedCPU(); ms != 1500 || ref != 0 {
		t.Errorf("calibratedCPU = %v ms, %v; want 1500 ms as measured, 0", ms, ref)
	}
}

func TestRefCostsReadingResets(t *testing.T) {
	var c refCosts
	for _, us := range []float64{3, 1, 2} {
		c.add(us)
	}
	var out strings.Builder
	c.serve(bufio.NewReader(strings.NewReader("\n\n")), &out)
	if got, want := out.String(), "2 3\n0 0\n"; got != want {
		t.Errorf("readings %q, want %q", got, want)
	}
}
