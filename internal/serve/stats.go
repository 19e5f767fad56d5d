package serve

// Per-deployment metrics, recorded inline on the serving hot path with
// atomics only (no locks, no allocations): counters, per-class tallies,
// and a log2-bucketed latency histogram from which Stats derives p50/p99.
// The memory-centric-profiling lesson applied to serving: latency and
// throughput observability is built into the path, not bolted around it.
// Counters see every request; the latency histogram is fed by sampled
// requests (every latSampleEvery-th ticket per shard, ring.go), so the
// steady-state path sheds the two time.Now() calls on the other N-1.

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// latBuckets is the histogram size: bucket i counts latencies in
// [2^(i-1), 2^i) nanoseconds, covering up to ~9.2 s in bucket 63.
const latBuckets = 64

type stats struct {
	start time.Time

	accepted  atomic.Uint64
	completed atomic.Uint64
	dropped   atomic.Uint64
	errors    atomic.Uint64

	batches         atomic.Uint64
	batched         atomic.Uint64 // sum of flushed batch sizes
	fullFlushes     atomic.Uint64
	deadlineFlushes atomic.Uint64

	perClass []atomic.Uint64
	latency  [latBuckets]atomic.Uint64
}

func (s *stats) init(classes int) {
	s.start = time.Now()
	s.perClass = make([]atomic.Uint64, classes)
}

// flush records one harvest sweep (= one micro-batch). full means the
// sweep collected at least BatchSize requests. deadline means a hold
// expired with work pending (ring.go passes shard.flushDeadline): false
// under the default greedy flush, possibly true once ServingConfig
// enables deadline batching (a positive max_delay_ns, or
// adaptive_flush).
func (s *stats) flush(size int, deadline, full bool) {
	s.batches.Add(1)
	s.batched.Add(uint64(size))
	switch {
	case deadline:
		s.deadlineFlushes.Add(1)
	case full:
		s.fullFlushes.Add(1)
	}
}

// observeFast records one completed request's counters without a
// latency sample — the common (unsampled) hot-path variant.
func (s *stats) observeFast(class int, err error) {
	s.completed.Add(1)
	if err != nil {
		s.errors.Add(1)
	} else if class >= 0 && class < len(s.perClass) {
		s.perClass[class].Add(1)
	}
}

// observe records one completed request including its latency sample.
func (s *stats) observe(class int, err error, lat time.Duration) {
	s.observeFast(class, err)
	ns := lat.Nanoseconds()
	if ns < 0 {
		ns = 0
	}
	b := bits.Len64(uint64(ns))
	if b >= latBuckets {
		b = latBuckets - 1
	}
	s.latency[b].Add(1)
}

// Stats is a point-in-time snapshot of a deployment's serving metrics.
type Stats struct {
	// Accepted counts requests admitted to a shard's slot ring; Completed
	// counts requests classified and delivered (Completed ≤ Accepted,
	// equal once quiescent). Dropped counts requests shed at the door by
	// backpressure; Errors counts accepted requests whose inference
	// failed (e.g. wrong feature count).
	Accepted, Completed, Dropped, Errors uint64
	// PerClass tallies delivered predictions by class index.
	PerClass []uint64
	// Batches counts harvest sweeps (= micro-batches); FullFlushes are
	// sweeps that collected at least BatchSize requests. DeadlineFlushes
	// are sweeps released by an expired hold deadline — always 0 under
	// the default greedy policy, nonzero only when deadline batching is
	// enabled through ServingConfig (max_delay_ns present and positive,
	// or adaptive_flush). MeanBatch is the average sweep size.
	Batches, FullFlushes, DeadlineFlushes uint64
	MeanBatch                             float64
	// P50 and P99 are latency-quantile upper bounds from the log2
	// histogram (zero until a sampled request completes): time from
	// admission to delivered classification, batching wait included.
	// The histogram is fed by every latSampleEvery-th request per shard.
	P50, P99 time.Duration
	// Throughput is delivered requests per second averaged over the
	// deployment's uptime.
	Throughput float64
	// Uptime is the time since the deployment started.
	Uptime time.Duration
}

func (s *stats) snapshot() Stats {
	var r RawStats
	s.accumulate(&r)
	r.UptimeNS = int64(time.Since(s.start))
	return r.Stats()
}

// accumulate folds this stats instance's live counters and latency
// histogram into r, so an endpoint's merged view computes its quantiles
// over the combined histogram instead of averaging per-revision
// quantiles (which would be meaningless). r's histogram is left
// untrimmed at latBuckets entries; uptime is the caller's to set.
func (s *stats) accumulate(r *RawStats) {
	r.Accepted += s.accepted.Load()
	r.Completed += s.completed.Load()
	r.Dropped += s.dropped.Load()
	r.Errors += s.errors.Load()
	r.Batches += s.batches.Load()
	r.Batched += s.batched.Load()
	r.FullFlushes += s.fullFlushes.Load()
	r.DeadlineFlushes += s.deadlineFlushes.Load()
	if len(s.perClass) > len(r.PerClass) {
		grown := make([]uint64, len(s.perClass))
		copy(grown, r.PerClass)
		r.PerClass = grown
	}
	for i := range s.perClass {
		r.PerClass[i] += s.perClass[i].Load()
	}
	if len(r.Latency) < latBuckets {
		grown := make([]uint64, latBuckets)
		copy(grown, r.Latency)
		r.Latency = grown
	}
	for i := range s.latency {
		r.Latency[i] += s.latency[i].Load()
	}
}

// quantile returns the upper bound (2^bucket ns) of the histogram bucket
// containing the q-th completed request.
func quantile(hist []uint64, total uint64, q float64) time.Duration {
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var cum uint64
	for i, c := range hist {
		cum += c
		if cum > rank {
			if i >= 63 {
				return time.Duration(int64(^uint64(0) >> 1))
			}
			return time.Duration(uint64(1) << uint(i))
		}
	}
	return 0
}
