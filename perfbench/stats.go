package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the q-th percentile (0 <= q <= 100) of xs by linear
// interpolation between closest ranks (the "type 7" rule numpy and most
// spreadsheets use). xs need not be sorted; it is left unchanged. The
// percentile of an empty sample is NaN.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	pos := q / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median is the 50th percentile.
func median(xs []float64) float64 { return percentile(xs, 50) }

// quartiles returns the three cut points dividing xs into four groups,
// computed exactly as Python's statistics.quantiles(xs, n=4) does with its
// default "exclusive" method, so a spread printed here matches the one a
// reviewer computes from the printed values. It needs at least two
// values.
func quartiles(xs []float64) (q1, q2, q3 float64, ok bool) {
	n := len(xs)
	if n < 2 {
		return 0, 0, 0, false
	}
	s := sortedCopy(xs)
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		// Like Python, delta is taken after the clamp, so the outer cut
		// points of very small samples extrapolate.
		delta := i*(n+1) - 4*j
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3), true
}

// relSpread is the interquartile range of xs as a share of its median:
// the run-to-run noise measure the benchmark's bounds are set against.
func relSpread(xs []float64) float64 {
	q1, q2, q3, ok := quartiles(xs)
	if !ok || q2 == 0 {
		return math.NaN()
	}
	return (q3 - q1) / q2
}

// opDoneWait attributes the combined barrier's time to its middle stage:
// the local op_done wait is what remains of a whole ARMCI_Barrier once the
// stage-1 all-reduce and the stage-3 barrier, each probed alone, are taken
// away. The result is clamped at zero: when the wait is shorter than the
// probes' own noise the stage costs nothing measurable, never less.
func opDoneWait(barrier, allReduce, stage3 float64) float64 {
	return math.Max(0, barrier-allReduce-stage3)
}

// micros converts durations to float64 microseconds.
func micros(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Microsecond)
	}
	return out
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
