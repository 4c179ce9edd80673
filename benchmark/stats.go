package main

import (
	"math"
	"slices"
)

// percentile returns the p-quantile (0 <= p <= 1) of xs by the
// nearest-rank rule: the smallest sample with at least p of the samples
// at or below it. xs is sorted in place. An empty sample reads 0.
func percentile(xs []int64, p float64) int64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	k := int(math.Ceil(p*float64(len(xs)))) - 1
	return xs[min(max(k, 0), len(xs)-1)]
}

// midmean is the interquartile mean: the mean of the middle half of the
// samples. Like the median it ignores both tails; unlike the median it
// moves smoothly when the samples have two modes and their shares shift,
// which is what round trips on two shared cores do. xs is sorted in
// place. An empty sample reads 0.
func midmean(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	mid := xs[len(xs)/4 : len(xs)-len(xs)/4]
	var sum int64
	for _, x := range mid {
		sum += x
	}
	return float64(sum) / float64(len(mid))
}

// medianF is the median of a float sample (mean of the middle two for an
// even count); it does not reorder vs.
func medianF(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := slices.Clone(vs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method), so
// -compare and the repeatability check read the same spread the driver
// reads. It needs at least two values.
func quartiles(vs []float64) (q1, q3 float64) {
	s := slices.Clone(vs)
	slices.Sort(s)
	at := func(p float64) float64 {
		pos := p * float64(len(s)+1)
		j := min(max(int(pos), 1), len(s)-1)
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(0.25), at(0.75)
}

// spread is the interquartile distance as a share of the median.
func spread(vs []float64) float64 {
	if len(vs) < 2 {
		return 0
	}
	q1, q3 := quartiles(vs)
	m := medianF(vs)
	if m == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(m)
}

// ratio is a/b, or 0 when b is 0: a probe that did no work reports 0
// rather than NaN, which JSON cannot carry.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
