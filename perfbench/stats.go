package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a percentile before it
// is reported: a tail estimated from fewer is mostly noise.
const minBeyond = 10

// tailQuantiles are the candidate tail percentiles, highest first. The
// list stops at p99: the benchmark's latency bounds are set on p99, and
// p99.9 of a 20-second run moves with every scheduling hiccup.
var tailQuantiles = []float64{0.99, 0.95, 0.90, 0.75}

// Summary is a latency (or other sample) distribution reduced to the
// median and the highest tail percentile the sample count supports.
type Summary struct {
	N      int
	P50    float64
	Tail   float64
	TailQ  float64 // the quantile Tail reports (1 = the maximum)
	Mean   float64
	Max    float64
	sorted []float64
}

// Summarize sorts a copy of xs and reduces it. With fewer than
// minBeyond+1 samples no percentile has minBeyond samples beyond it;
// Tail then reports the maximum and TailQ is 1, so the label always
// says what the number is.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	s.sorted = append([]float64(nil), xs...)
	sort.Float64s(s.sorted)
	sum := 0.0
	for _, x := range s.sorted {
		sum += x
	}
	s.Mean = sum / float64(len(xs))
	s.Max = s.sorted[len(xs)-1]
	s.P50 = s.Quantile(0.5)
	s.Tail, s.TailQ = s.Max, 1
	for _, q := range tailQuantiles {
		if beyond(len(xs), q) >= minBeyond {
			s.Tail, s.TailQ = s.Quantile(q), q
			break
		}
	}
	return s
}

// beyond counts the samples strictly above the nearest-rank q-quantile
// of n samples.
func beyond(n int, q float64) int { return n - rank(n, q) }

// rank is the 1-based nearest-rank index of the q-quantile.
func rank(n int, q float64) int {
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// Quantile is the nearest-rank q-quantile of the summarized samples.
func (s Summary) Quantile(q float64) float64 {
	if s.N == 0 {
		return 0
	}
	return s.sorted[rank(s.N, q)-1]
}

// TailName labels the tail percentile, e.g. "p99" or "max".
func (s Summary) TailName() string {
	switch {
	case s.N == 0:
		return "none"
	case s.TailQ >= 1:
		return "max"
	}
	return fmt.Sprintf("p%g", s.TailQ*100)
}

// durationsMS converts durations to float milliseconds.
func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// median of a small set of values.
func median(xs []float64) float64 { return Summarize(xs).P50 }

// Window sizes for windowed: a window's median needs a few hundred
// samples, its p99 at least 1100 (ten beyond it, with margin). Runs
// too short for two p99 windows take their tail from windows of
// smallTailWindow, each of which supports p90.
const (
	p50Window       = 200
	tailWindow      = 1100
	smallTailWindow = 100
	maxWindows      = 8
)

// windowed splits samples, in the order they were due, into equal
// consecutive windows and returns the median over windows of each
// window's median and of each window's tail. CPU time stolen from this
// machine by its neighbours comes in spells of seconds; a spell then
// moves a few windows, not the reported figure. Too few samples for
// two windows give the plain summary.
func windowed(xs []float64) (p50, tail float64) {
	windows := func(per int) int {
		k := len(xs) / per
		if k > maxWindows {
			k = maxWindows
		}
		return k
	}
	chunks := func(k int, stat func(Summary) float64) float64 {
		if k < 2 {
			return stat(Summarize(xs))
		}
		vals := make([]float64, k)
		for i := range vals {
			vals[i] = stat(Summarize(xs[i*len(xs)/k : (i+1)*len(xs)/k]))
		}
		return median(vals)
	}
	k := windows(tailWindow)
	if k < 2 {
		k = windows(smallTailWindow)
	}
	return chunks(windows(p50Window), func(s Summary) float64 { return s.P50 }),
		chunks(k, func(s Summary) float64 { return s.Tail })
}

// satWindow is one saturation phase: when it started and when each
// of its requests completed.
type satWindow struct {
	start time.Time
	done  []time.Time
}

// perSecond returns the median, over the whole seconds of every
// window, of the requests completed in that second; each window's last
// partial second is dropped. Windows without a whole second count at
// their plain rate.
func perSecond(ws []satWindow) float64 {
	var counts []float64
	for _, w := range ws {
		last := satEnd(w)
		secs := int(last.Sub(w.start) / time.Second)
		if secs < 1 {
			counts = append(counts, float64(len(w.done))/last.Sub(w.start).Seconds())
			continue
		}
		per := make([]float64, secs)
		for _, t := range w.done {
			if i := int(t.Sub(w.start) / time.Second); i < secs {
				per[i]++
			}
		}
		counts = append(counts, per...)
	}
	return median(counts)
}

// perSecondUnstolen is perSecond for one window, with each whole
// second's count divided by the share of the machine's CPU time the
// host did not steal in that second. steal[i] is the machine's total
// stolen CPU time (summed over its cpus CPUs) at w.start + i seconds.
func perSecondUnstolen(w satWindow, steal []float64, cpus int) float64 {
	secs := len(steal) - 1
	if s := int(satEnd(w).Sub(w.start) / time.Second); s < secs {
		secs = s
	}
	if secs < 1 {
		return perSecond([]satWindow{w})
	}
	per := make([]float64, secs)
	for _, t := range w.done {
		if i := int(t.Sub(w.start) / time.Second); i < secs {
			per[i]++
		}
	}
	for i := range per {
		share := 1 - (steal[i+1]-steal[i])/float64(cpus)
		per[i] /= math.Max(share, 0.05)
	}
	return median(per)
}

// sampleSteal reads the machine's stolen CPU time at start and at every
// whole second after it until stop is closed, and returns the samples.
func sampleSteal(start time.Time, stop <-chan struct{}) []float64 {
	out := []float64{stealSeconds()}
	for i := 1; ; i++ {
		select {
		case <-stop:
			return out
		case <-time.After(time.Until(start.Add(time.Duration(i) * time.Second))):
			out = append(out, stealSeconds())
		}
	}
}

// mean of a set of values.
func mean(xs []float64) float64 { return Summarize(xs).Mean }
