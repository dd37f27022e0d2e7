package main

import (
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// Speed correction.
//
// The 2-vCPU host this benchmark was tuned on switches between CPU speed
// states a factor ~1.6-2 apart every few hundred milliseconds to seconds,
// so the same fixed work can take twice as long from one second to the
// next; and at times the hypervisor steals 10-30% of the CPU time for
// another guest. A raw wall-clock time therefore measures the host as much
// as the program. Each timed operation is paired with a run of calibrate,
// a fixed computation of the benchmark's own on one goroutine, made right
// after the operation; the operation's time is scaled by calNominal
// divided by the calibration's measured duration. Operations that only
// compute (solves, a campaign epoch, set-up passes) are timed in process
// CPU time and calibrated in CPU time (addCPU), which leaves stolen time
// out of both: over five runs with 10-25% steal, wall-clock times so
// corrected spread by 22-43%, CPU times by 3-5%. serve is timed in wall
// clock and corrected by netCal (serve.go). Units stay ms and s; raw
// (uncorrected) times are printed beside the corrected ones.

// calNominal is the duration of one calibrate call in the host's fast
// speed state (measured on a 2-vCPU x86-64 host). Corrected times read as
// "what the operation would have taken in that state".
const calNominal = 250 * time.Microsecond

// calReps is the calibration's fixed work: this many swap-and-check steps
// over an order-18 permutation.
const calReps = 1000

var calSink int

// calibrate runs the fixed calibration computation once and returns how
// long it took. The work is integer- and branch-heavy over an L1-resident
// permutation, like the program's search kernels, and independent of the
// program's code.
func calibrate() time.Duration {
	p := [18]int{0, 2, 1, 6, 4, 10, 11, 12, 3, 9, 5, 8, 13, 7, 15, 14, 16, 17}
	x := uint64(88172645463325252)
	start := time.Now()
	bad := 0
	for r := 0; r < calReps; r++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		i, j := int(x%18), int((x>>32)%18)
		p[i], p[j] = p[j], p[i]
		for d := 1; d < 18; d++ {
			var mask uint64
			for k := 0; k+d < 18; k++ {
				v := uint(p[k+d] - p[k] + 17)
				if mask&(1<<v) != 0 {
					bad++
				}
				mask |= 1 << v
			}
		}
	}
	d := time.Since(start)
	calSink += bad
	return d
}

// fsCalNominal is the duration of one fsCalibrate call in the host's fast
// state (ext4 on a 2-vCPU x86-64 host).
const fsCalNominal = 300 * time.Microsecond

// fsCalibrate is the calibration of file-system work that waits on fsync,
// which the host's CPU speed states do not slow by calibrate's factor: it
// creates the file path with one short record, fsyncs it and then its
// directory, the same kind of work as a campaign store's create.
func fsCalibrate(path string) (time.Duration, error) {
	start := time.Now()
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	_, err = f.Write(fsCalRecord[:])
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, err
	}
	dir, err := os.Open(filepath.Dir(path))
	if err != nil {
		return 0, err
	}
	err = dir.Sync()
	if cerr := dir.Close(); err == nil {
		err = cerr
	}
	return time.Since(start), err
}

var fsCalRecord [300]byte

// timed is a series of operation times, each with the calibration made
// right after it.
type timed struct {
	raw []time.Duration
	cal []time.Duration
	// nominal is the calibration's nominal duration; zero means
	// calNominal (the calibrate computation).
	nominal time.Duration
}

// addCPU records one operation's CPU time and calibrates in CPU time.
func (t *timed) addCPU(cpu time.Duration) { t.addWith(cpu, calibrateCPU()) }

// cpuTime returns the CPU time the process has used, all threads
// together. Under a hypervisor that accounts steal to its guests (as the
// reference host's does), time a virtual CPU was stolen is not in it.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// calibrateCPU runs calibrate and returns the CPU time it took.
func calibrateCPU() time.Duration {
	c0 := cpuTime()
	calibrate()
	return cpuTime() - c0
}

// addWith records an operation whose calibration was made separately.
func (t *timed) addWith(raw, cal time.Duration) {
	t.raw = append(t.raw, raw)
	t.cal = append(t.cal, cal)
}

// factor returns the speed correction for operation i: nominal over the
// median of the five calibrations around its own, so a single pre-empted
// calibration does not skew its neighbours.
func (t *timed) factor(i int) float64 {
	lo, hi := i-2, i+3
	if lo < 0 {
		lo = 0
	}
	if hi > len(t.cal) {
		hi = len(t.cal)
	}
	w := append([]time.Duration(nil), t.cal[lo:hi]...)
	sort.Slice(w, func(a, b int) bool { return w[a] < w[b] })
	nominal := t.nominal
	if nominal == 0 {
		nominal = calNominal
	}
	return float64(nominal) / float64(w[len(w)/2])
}

// last returns the correction of the latest operation.
func (t *timed) last() float64 { return t.factor(len(t.raw) - 1) }

// rawMS and corrMS return the operation times in milliseconds.
func (t *timed) rawMS() []float64 {
	out := make([]float64, len(t.raw))
	for i, d := range t.raw {
		out[i] = ms(d)
	}
	return out
}

func (t *timed) corrMS() []float64 {
	out := make([]float64, len(t.raw))
	for i, d := range t.raw {
		out[i] = ms(d) * t.factor(i)
	}
	return out
}

// gcCycles returns the number of GC cycles the process has completed.
func gcCycles() uint64 {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile of xs (nearest rank on a sorted copy).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s)) + 0.5)
	if i >= len(s) {
		i = len(s) - 1
	}
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// midMean returns the mean of the middle half of xs by rank: unlike the
// median, it moves smoothly when the values come from two states of the
// host in changing proportions, and unlike the mean it ignores outliers.
func midMean(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	lo, hi := len(s)/4, len(s)-len(s)/4
	if hi <= lo {
		return median(xs)
	}
	return sum(s[lo:hi]) / float64(hi-lo)
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
