package main

// The benchmark's own statistics. Every latency it reports is an exact
// order statistic of its own samples — never a quantile read back from
// the daemon's /stats, whose log2 buckets overstate by up to 2×.

import (
	"math"
	"sort"
	"time"
)

// quantile is one reported order statistic.
type quantile struct {
	P      float64 // percentile, e.g. 99
	Value  float64
	N      int // sample count
	Beyond int // samples strictly above the reported rank
}

// rank is the nearest-rank index (1-based) of percentile p over n
// samples: the smallest k with k/n ≥ p/100.
func rank(p float64, n int) int {
	// The epsilon keeps float error (99.9/100*10000 = 9990.000000000002)
	// from pushing an exact rank up by one.
	k := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// percentile returns the exact nearest-rank percentile of xs.
func percentile(xs []float64, p float64) quantile {
	if len(xs) == 0 {
		return quantile{P: p}
	}
	s := sorted(xs)
	k := rank(p, len(s))
	return quantile{P: p, Value: s[k-1], N: len(s), Beyond: len(s) - k}
}

// tailPercentiles are the candidates for a reported tail, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// tail returns the highest candidate percentile with at least minBeyond
// samples beyond it; with too few samples for even the median it
// returns the median and its (short) Beyond count says so.
func tail(xs []float64) quantile {
	for _, p := range tailPercentiles {
		if q := percentile(xs, p); q.Beyond >= minBeyond {
			return q
		}
	}
	return percentile(xs, 50)
}

func median(xs []float64) float64 { return percentile(xs, 50).Value }

// rateWindow is the width of the windows a throughput is taken over.
const rateWindow = 250 * time.Millisecond

// windowRates splits the completions of a phase into span/w runs of
// consecutive completions, equal in count, and returns each run's
// completions per second; done holds each completion's offset from the
// phase's start. A throughput is the median of these, so a burst of
// host load that stalls one window moves it less than it moves the
// phase's mean.
func windowRates(done []time.Duration, span, w time.Duration) []float64 {
	s := append([]time.Duration(nil), done...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	n := min(max(int(span/w), 1), len(s))
	var rates []float64
	var from time.Duration
	for i := 0; i < n; i++ {
		lo, hi := i*len(s)/n, (i+1)*len(s)/n
		if d := s[hi-1] - from; d > 0 {
			rates = append(rates, float64(hi-lo)/d.Seconds())
		}
		from = s[hi-1]
	}
	return rates
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// openLoopSample is one open-loop request: when the schedule said to
// send it, when the generator actually sent it, and when the reply
// landed. Latency counts from due time, so a stall that delays later
// sends is charged to the requests it delayed.
type openLoopSample struct {
	Due, Sent, Done time.Time
}

// Latency is the request's latency measured from its due time.
func (s openLoopSample) Latency() time.Duration { return s.Done.Sub(s.Due) }

// Late is how far behind schedule the generator sent the request.
func (s openLoopSample) Late() time.Duration {
	if d := s.Sent.Sub(s.Due); d > 0 {
		return d
	}
	return 0
}

// dueTime is the k-th (0-based) send time of an open loop at rate per
// second starting at start.
func dueTime(start time.Time, rate float64, k int) time.Time {
	return start.Add(time.Duration(float64(k) / rate * float64(time.Second)))
}

// span is one traced interval. Spans of one request or job share ID;
// Parent indexes the enclosing span in the same trace (-1 for roots).
type span struct {
	Name   string `json:"name"`
	ID     string `json:"id"`
	Start  int64  `json:"start_ns"` // since the trace epoch
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

func (s span) dur() int64 { return s.End - s.Start }

// selfTimes returns, for every span, its duration minus the part of its
// interval covered by its children (children may overlap each other;
// their union is subtracted once, clipped to the parent).
func selfTimes(spans []span) []int64 {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		ivs := make([][2]int64, 0, len(kids[i]))
		for _, k := range kids[i] {
			a, b := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if b > a {
				ivs = append(ivs, [2]int64{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x][0] < ivs[y][0] })
		var covered, curA, curB int64
		open := false
		for _, iv := range ivs {
			if !open || iv[0] > curB {
				if open {
					covered += curB - curA
				}
				curA, curB, open = iv[0], iv[1], true
			} else if iv[1] > curB {
				curB = iv[1]
			}
		}
		if open {
			covered += curB - curA
		}
		out[i] = s.dur() - covered
	}
	return out
}
