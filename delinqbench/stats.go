package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects a run's metrics. Every metric is also printed as a
// human-readable line, so the run's log names each one with its unit.
type report map[string]metric

func (r report) set(name string, v float64, unit string) {
	r[name] = metric{Value: v, Unit: unit}
	fmt.Printf("  %-28s %14.6g %s\n", name, v, unit)
}

// minTail is how many samples must lie beyond a percentile before it is
// reported: a p99 needs at least 1000 samples, a p50 at least 20.
const minTail = 10

// percentile returns the p-quantile (nearest rank) of sorted samples in
// milliseconds, and whether at least minTail samples lie beyond it.
func percentile(sorted []time.Duration, p float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	idx := int(math.Ceil(p*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	return ms(sorted[idx]), n-1-idx >= minTail
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// printLatency prints one latency bucket: its sample count, its median
// and its tail percentiles, each marked refused when the sample cannot
// support it.
func printLatency(name string, lats []time.Duration) {
	sorted := append([]time.Duration(nil), lats...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	line := fmt.Sprintf("  latency %-12s n=%-7d", name, len(sorted))
	for _, q := range []struct {
		name string
		p    float64
	}{{"p50", 0.50}, {"p90", 0.90}, {"p99", 0.99}} {
		if v, ok := percentile(sorted, q.p); ok {
			line += fmt.Sprintf(" %s=%.3fms", q.name, v)
		} else {
			line += fmt.Sprintf(" %s=refused", q.name)
		}
	}
	fmt.Println(line)
}

// median of a non-empty float slice.
func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
