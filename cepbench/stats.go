package main

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"sort"
	"strings"
)

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// nearestRank returns the q-quantile of xs by the nearest-rank method.
func nearestRank(xs []int64, q float64) int64 {
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// percentiles a timing may be reported at, ascending.
var percentiles = []float64{50, 90, 99, 99.9, 99.99}

// minTail is how many samples must lie beyond a reported percentile.
const minTail = 10

// highestPercentile returns the highest percentile of n samples that has
// at least minTail samples beyond it, or 0 when even the median has not.
func highestPercentile(n int64) float64 {
	best := 0.0
	for _, p := range percentiles {
		rank := int64(math.Ceil(p/100*float64(n) - 1e-9))
		if n-rank >= minTail {
			best = p
		}
	}
	return best
}

// runOutcome is what failure accounting needs to know about one run.
type runOutcome struct {
	err error
	// behind marks an open-loop run whose sources fell further behind
	// schedule than the benchmark allows.
	behind bool
	keys   []string
}

// account scores one run against the reference unique-match set (both
// sorted). Every reference match is one operation. A run that errored or
// fell behind fails all of them; otherwise each missing and each spurious
// unique match is one failure.
func account(ref []string, o runOutcome) (attempted, failed int) {
	attempted = len(ref)
	if o.err != nil || o.behind {
		return attempted, attempted
	}
	missing, spurious := diffSorted(ref, o.keys)
	return attempted, missing + spurious
}

// diffSorted counts elements only in want (missing) and only in got
// (spurious); both slices are sorted and duplicate-free.
func diffSorted(want, got []string) (missing, spurious int) {
	i, j := 0, 0
	for i < len(want) && j < len(got) {
		switch {
		case want[i] == got[j]:
			i++
			j++
		case want[i] < got[j]:
			missing++
			i++
		default:
			spurious++
			j++
		}
	}
	return missing + len(want) - i, spurious + len(got) - j
}

// digest is a short fingerprint of a sorted match-key set.
func digest(keys []string) string {
	sum := sha256.Sum256([]byte(strings.Join(keys, "\n")))
	return hex.EncodeToString(sum[:8])
}
