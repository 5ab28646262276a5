package main

import "time"

// Machine-speed calibration. On a shared VM the same build can take 40 ms
// in one stretch of minutes and 65 ms in another: the host's CPU speed
// drifts, and longer runs do not average the drift away. A fixed pure-CPU
// loop slows down with it. Timed next to every sample, it rescales the
// run's timings to one reference speed, so runs made minutes apart compare.
// On the 2-vCPU VM these figures were set on, six minutes of back-to-back
// 100k builds cut into 20 s windows gave window medians with a quartile
// spread of 0.11; divided by the loop's window medians, 0.05.
//
// The loop is the benchmark's own code, never the program's, so a change
// to the program cannot move it.

// calSteps is the loop length: about 9 ms at the reference speed.
const calSteps = 5_000_000

// calRefMs is the loop's time at the reference speed, 1.8 ns per step.
const calRefMs = 9.0

var calSink uint64

// calibrate times one pass of the calibration loop, in milliseconds.
func calibrate() float64 {
	t0 := time.Now()
	x := calSink | 1
	for i := 0; i < calSteps; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	calSink = x
	return ms(time.Since(t0))
}

// speedFactor is what a run's wall times are multiplied by to express them
// at the reference speed: the reference loop time over the run's median
// loop time.
func (h *harness) speedFactor() float64 {
	if len(h.cal) == 0 {
		return 1
	}
	return calRefMs / median(h.cal)
}

// timeUnits are the units speedFactor rescales.
var timeUnits = map[string]bool{"s": true, "ms": true, "us": true, "ns": true}
