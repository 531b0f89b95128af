package main

import (
	"fmt"
	"os"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// cpuNow returns the CPU time every thread of the process has used so
// far, user and system. Unlike wall time it does not grow while the
// process waits for a core, and the kernel leaves out the time the
// hypervisor steals from it.
func cpuNow() time.Duration { return cpuClock(clockProcessCPUTime) }

// Linux's CPU-time clocks. They read the scheduler's nanosecond
// runtime; getrusage's figures, derived from tick samples, were off by
// a factor of two for single milliseconds of one thread.
const (
	clockProcessCPUTime = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThreadCPUTime  = 3 // CLOCK_THREAD_CPUTIME_ID
)

func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		panic(e) // a valid clock and pointer cannot fail
	}
	return time.Duration(ts.Nano())
}

// calRefMs is the calibration loop's CPU time on the reference host,
// in ms: about what it took on a 2-core Xeon (Sapphire Rapids) VM while
// the host was quiet. Reference-scaled times are CPU times multiplied by
// calRefMs / (the loop's CPU time measured beside them).
const calRefMs = 5.0

// calibrator times a fixed loop of the benchmark's own: random
// read-modify-writes over a 2 MiB table, about one core's L2, indexed
// through a 1 MiB table. On a shared host the CPU time of the same work
// moved by up to 2.5x within minutes with the other tenants' load, and
// this loop moved with it: over six fleet-10k runs whose op CPU time
// spread by 0.14 (quartile distance over median), the op time divided
// by the loop time right after it spread by 0.03. The ratio is a
// property of the program, not of the host's moment. The tables live
// outside the Go heap, so heap_mb does not count them.
type calibrator struct {
	table []uint64
	idx   []uint32
	sink  uint64
	ms    []float64 // every measured loop time
}

func newCalibrator() (*calibrator, error) {
	const words, steps = 1 << 18, 1 << 18
	mem, err := syscall.Mmap(-1, 0, words*8+steps*4, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("calibration table: %w", err)
	}
	c := &calibrator{
		table: unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), words),
		idx:   unsafe.Slice((*uint32)(unsafe.Pointer(&mem[words*8])), steps),
	}
	x := uint32(1)
	for i := range c.idx {
		x = x*1664525 + 1013904223
		c.idx[i] = x % words
	}
	return c, nil
}

// measure runs the loop once and returns its CPU time in ms. The loop
// runs on a locked thread and is timed with that thread's CPU clock,
// so the runtime's other threads do not count.
func (c *calibrator) measure() float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start := cpuClock(clockThreadCPUTime)
	n := uint32(len(c.table))
	var s uint64
	for r := 0; r < 2; r++ {
		for i, j := range c.idx {
			c.table[j] += uint64(i) ^ s
			s += c.table[(j*7+1)%n]
		}
	}
	c.sink += s
	d := ms(cpuClock(clockThreadCPUTime) - start)
	c.ms = append(c.ms, d)
	return d
}

// scale returns cpuMs, measured beside a loop that took calMs, in
// reference-host ms.
func scale(cpuMs, calMs float64) float64 { return cpuMs * calRefMs / calMs }

// timeSetups runs setup n times and returns the median reference-scaled
// set-up time in seconds. Each set-up is bracketed by three loops
// before and three after, and scaled by the median of those six.
func timeSetups(c *calibrator, n int, setup func(i int) error) (float64, error) {
	var times []float64
	for i := 0; i < n; i++ {
		var cal []float64
		for range 3 {
			cal = append(cal, c.measure())
		}
		start := cpuNow()
		if err := setup(i); err != nil {
			return 0, err
		}
		d := ms(cpuNow() - start)
		for range 3 {
			cal = append(cal, c.measure())
		}
		times = append(times, scale(d, median(cal))/1e3)
	}
	return median(times), nil
}

// opTimes collects a run's ops: each op's CPU time and its
// reference-scaled time, scaled by the calibration loop measured right
// after it.
type opTimes struct {
	cpu, ref, cal []float64
}

func (o *opTimes) add(cpuMs, calMs float64) {
	o.cpu = append(o.cpu, cpuMs)
	o.ref = append(o.ref, scale(cpuMs, calMs))
	o.cal = append(o.cal, calMs)
}

// report sets the op metrics and logs the unscaled figures to stderr.
func (o *opTimes) report(b *bench) {
	b.e2e["op_ref_ms_p50"] = median(o.ref)
	b.e2e["op_ref_ms_p90"] = quantile(o.ref, 0.9)
	b.layer["bench.ops_timed"] = float64(len(o.ref))
	fmt.Fprintf(os.Stderr, "perfbench: %d ops: CPU time p50 %.3f ms, p90 %.3f ms; calibration loop p50 %.3f ms (reference %.1f ms)\n",
		len(o.cpu), median(o.cpu), quantile(o.cpu, 0.9), median(o.cal), calRefMs)
}
