package main

import (
	"math"
	"sort"
)

// minBeyond is the sample-count rule: a percentile is reported only
// when at least this many samples lie above it, so a tail figure is
// never one slow sample (or, on a single-operation workload, the whole
// run's wall time) under another name.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of xs and whether the
// sample-count rule allows reporting it.
func percentile(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	// The epsilon keeps float rounding (0.9*100 = 90.000…01) from
	// pushing the rank up by one.
	rank := int(math.Ceil(q*float64(n) - 1e-9))
	rank = min(max(rank, 1), n)
	return s[rank-1], n-rank >= minBeyond
}

// median is the middle value of xs (the mean of the middle two for an
// even count); 0 for none. Set-up times and per-run aggregates use it;
// latency figures go through percentile and its sample-count rule.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// latency is a reported latency distribution: the sample count and
// every standard percentile the sample-count rule allows.
type latency struct {
	Samples int                `json:"samples"`
	MS      map[string]float64 `json:"ms"`
}

// summarize applies the sample-count rule to p50, p90, p99 and p99.9.
func summarize(ms []float64) latency {
	l := latency{Samples: len(ms), MS: map[string]float64{}}
	for _, p := range []struct {
		name string
		q    float64
	}{{"p50", 0.50}, {"p90", 0.90}, {"p99", 0.99}, {"p999", 0.999}} {
		if v, ok := percentile(ms, p.q); ok {
			l.MS[p.name] = v
		}
	}
	return l
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}
