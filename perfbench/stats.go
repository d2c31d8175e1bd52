package main

import (
	"regexp"
	"sort"
)

// tailLadder holds the percentiles a _tail metric may report, in
// permyriad (9900 = p99). A tail is the highest rung that still leaves
// at least minBeyond samples strictly above it, so a short run reports
// p90 where a long one reports p99, and no tail rests on a handful of
// outliers. The ladder stops at p99: on a shared two-core host the
// samples beyond p99 are set by whichever GC cycle, fsync or neighbour
// burst the run happened to meet, and moved ±50% between runs of the
// same code, which no bound a regression gate can use would absorb.
var tailLadder = []int{5000, 9000, 9900}

// minBeyond is how many samples must lie beyond a reported tail.
const minBeyond = 10

// summary is a timing distribution reduced to its median and tail.
type summary struct {
	N int
	// P50 is the nearest-rank median.
	P50 float64
	// TailPct is the percentile Tail reports (e.g. 99.9), and Beyond how
	// many samples lie strictly above it.
	TailPct float64
	Tail    float64
	Beyond  int
	// P90 and P99 are reported alongside, whatever the tail's rung.
	P90, P99 float64
}

// rankIndex is the 0-based nearest-rank index of the permyriad
// percentile pm among n sorted samples: the smallest sample with at
// least pm/10000 of the samples at or below it.
func rankIndex(n, pm int) int {
	r := (pm*n + 9999) / 10000
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r - 1
}

// summarize sorts a copy of xs and applies the tail rule. With fewer
// than 2×minBeyond samples no rung qualifies; the tail then falls back
// to the median and Beyond says how thin it is.
func summarize(xs []float64) summary {
	n := len(xs)
	if n == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pm := tailLadder[0]
	for _, p := range tailLadder {
		if n-1-rankIndex(n, p) >= minBeyond {
			pm = p
		}
	}
	i := rankIndex(n, pm)
	return summary{
		N:       n,
		P50:     s[rankIndex(n, 5000)],
		TailPct: float64(pm) / 100,
		Tail:    s[i],
		Beyond:  n - 1 - i,
		P90:     s[rankIndex(n, 9000)],
		P99:     s[rankIndex(n, 9900)],
	}
}

// median is the nearest-rank median of xs (0 when empty).
func median(xs []float64) float64 { return summarize(xs).P50 }

// metricName is the charset every reported metric name must match:
// a letter or digit, then at most 63 of [A-Za-z0-9_.-].
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func validName(s string) bool { return metricName.MatchString(s) }
