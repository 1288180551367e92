package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"uoivar/internal/mat"
)

// tailSamples is the number of samples a reported percentile must have
// beyond it: p99 needs at least 1,000 samples, p50 at least 20.
const tailSamples = 10

// quantile returns the exact nearest-rank q-quantile of sorted: the
// smallest sample with at least a share q of the samples at or below it.
// It never interpolates.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	k := int(math.Ceil(q*float64(n))) - 1
	if k < 0 {
		k = 0
	}
	if k >= n {
		k = n - 1
	}
	return sorted[k]
}

// median is quantile(·, 0.5) of an unsorted sample set (NaN when empty).
func median(samples []float64) float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// latency is one sample set's exact p50 and p99 with its sample count.
type latency struct {
	N   int     `json:"n"`
	P50 float64 `json:"p50"`
	P99 float64 `json:"p99"`
}

// errTooFewSamples reports a sample set too small to support p99.
var errTooFewSamples = errors.New("too few samples for p99")

// summarize computes p50 and p99 from one sample set. It refuses a set
// with fewer than tailSamples samples beyond the p99 rank, and checks the
// p50 ≤ p99 invariant.
func summarize(samples []float64) (latency, error) {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	n := len(s)
	k := int(math.Ceil(0.99*float64(n))) - 1
	if n == 0 || n-1-k < tailSamples {
		return latency{N: n}, fmt.Errorf("%w: %d", errTooFewSamples, n)
	}
	l := latency{N: n, P50: quantile(s, 0.5), P99: quantile(s, 0.99)}
	if l.P50 > l.P99 {
		return l, fmt.Errorf("p50 %g above p99 %g", l.P50, l.P99)
	}
	return l, nil
}

// edgeThreshold is the |coefficient| above which a fitted lag coefficient
// counts as a recovered Granger edge.
const edgeThreshold = 0.05

// edgeF1 scores the recovered off-diagonal Granger edges of est against
// the nonzero off-diagonal entries of truth (both p×p, rows = targets).
func edgeF1(truth, est *mat.Dense, thr float64) float64 {
	tp, fp, fn := 0, 0, 0
	for i := 0; i < truth.Rows; i++ {
		for j := 0; j < truth.Cols; j++ {
			if i == j {
				continue
			}
			real := truth.At(i, j) != 0
			found := math.Abs(est.At(i, j)) > thr
			switch {
			case real && found:
				tp++
			case found:
				fp++
			case real:
				fn++
			}
		}
	}
	if tp == 0 {
		return 0
	}
	return 2 * float64(tp) / float64(2*tp+fp+fn)
}

// coefHash hashes coefficient bit patterns (Float64bits), so two fits hash
// equal only when every coefficient is bit-identical.
func coefHash(vals ...[]float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range vals {
		for _, x := range v {
			u := math.Float64bits(x)
			for i := range b {
				b[i] = byte(u >> (8 * i))
			}
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// bitMismatches counts the positions where a and b differ in bits and
// returns the largest absolute difference.
func bitMismatches(a, b []float64) (n int, maxAbs float64) {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			n++
			maxAbs = math.Max(maxAbs, math.Abs(a[i]-b[i]))
		}
	}
	return n, maxAbs
}

// step is one forecast rate of the ladder with its open-loop accounting.
type step struct {
	Rate      float64 `json:"rate"`
	Sent      int     `json:"sent"`
	Succeeded int     `json:"succeeded"`
	Failed    int     `json:"failed"`
	Refused   int     `json:"refused"`
	Latency   latency `json:"latency_ms"`
	// LateMsMax is how far behind schedule the generator handed out a
	// request at worst; Backlog counts requests due in the step that no
	// connection had picked up when the step ended.
	LateMsMax float64 `json:"late_ms_max"`
	Backlog   int     `json:"backlog"`
	Behind    bool    `json:"behind"`
}

// p99LimitMs is the forecast latency limit the ladder's max rate must meet.
const p99LimitMs = 25

// passes reports whether a step meets the latency limit with every request
// answered and the generator on schedule.
func (s step) passes() bool {
	return !s.Behind && s.Failed == 0 && s.Refused == 0 && s.Succeeded == s.Sent &&
		s.Latency.N > 0 && s.Latency.P99 <= p99LimitMs
}

// maxRate returns the highest rate among passing steps (0 if none passes).
func maxRate(steps []step) float64 {
	best := 0.0
	for _, s := range steps {
		if s.passes() && s.Rate > best {
			best = s.Rate
		}
	}
	return best
}
