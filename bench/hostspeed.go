package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

// Host-speed correction. On a shared host the same world can take a
// third longer while a neighbour loads the machine, in phases that last
// longer than a whole benchmark run. Every timed world is therefore
// bracketed by a fixed single-threaded calibration kernel — map updates,
// a sort and float math, like the simulator's own mix — and its times
// are scaled by refKernel / (kernel time around the world). The kernel
// is part of the benchmark, so no change to the simulator moves it.

// refKernel is the kernel's time on the idle 2-core Intel Xeon host
// where the bounds were set: there, corrected times equal wall times.
const refKernel = 9 * time.Millisecond

// kernelSink keeps the kernel's result alive.
var kernelSink float64

// kernelTime collects garbage, then returns the median of five kernel
// runs. The kernel's buffers are allocated up front and dropped after,
// so no collection interrupts it and nothing of it stays on the heap.
func kernelTime() time.Duration {
	runtime.GC()
	m := make(map[int]int, 1<<16)
	v := make([]float64, 60000)
	var d [5]time.Duration
	for r := range d {
		start := time.Now()
		clear(m)
		x := uint64(88172645463325252)
		for i := range v {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			v[i] = float64(x%1000003) / 7
			m[int(x%50000)] += i
		}
		sort.Float64s(v)
		s := 0.0
		for i, f := range v {
			s += math.Sqrt(f) * float64(m[i%50000])
		}
		kernelSink += s
		d[r] = time.Since(start)
	}
	sort.Slice(d[:], func(a, b int) bool { return d[a] < d[b] })
	return d[2]
}

// scale returns the factor that corrects times measured between two
// kernel readings to the reference host.
func scale(before, after time.Duration) float64 {
	return 2 * refKernel.Seconds() / (before + after).Seconds()
}
