package main

// Classify path: POST /v1/endpoints/{name}/classify against a live
// endpoint, closed loop then open loop, every returned class checked
// against ir.Model.InferQ of the revisions the endpoint serves.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/alchemy"
	"repro/internal/httpapi"

	homunculus "repro"
)

// Open-loop rates, about a quarter of the closed-loop capacity each
// workload had when the benchmark was defined (2 cores, go1.24.0).
const (
	openRateSingle = 3500 // requests/s, one vector each
	openRateBatch  = 700  // requests/s, batchVectors vectors each
)

const (
	batchVectors = 64
	poolVectors  = 4096
	endpointName = "bench"
	warmupReqs   = 200
)

// refCompile compiles a spec in this process through the Go API — the
// reference the daemon's artifacts and classes are checked against.
func refCompile(s spec) (*homunculus.Pipeline, error) {
	p, err := alchemy.PlatformFromJSON(s.Req.Platform)
	if err != nil {
		return nil, err
	}
	opts := []homunculus.Option{homunculus.WithSearchConfig(s.Req.Search.Config())}
	if s.Req.Validate {
		opts = append(opts, homunculus.WithValidation())
	}
	pipe, err := homunculus.Generate(context.Background(), p, opts...)
	if err != nil {
		return nil, fmt.Errorf("reference compile %s: %w", s.Name, err)
	}
	if len(pipe.Apps) == 0 || pipe.Apps[0].Model == nil {
		return nil, fmt.Errorf("reference compile %s: no deployable model", s.Name)
	}
	return pipe, nil
}

// checkSameCode fails the run unless the daemon compiled j to the same
// code as the in-process reference compile of the same seeded spec:
// fixed-seed output must be byte-identical across processes.
func (r *run) checkSameCode(j *jobRun, ref *homunculus.Pipeline) {
	if got, want := j.status.Result.Apps[0].Code, ref.Apps[0].Code; got != want {
		r.fail("%s: daemon code (%d bytes) differs from the in-process compile (%d bytes)", j.spec.Name, len(got), len(want))
	}
}

// classifyInputs is a workload's request set with expected answers.
type classifyInputs struct {
	per    int         // vectors per request
	pool   [][]float64 // seeded vectors
	bodies [][]byte    // request k carries pool[k*per : (k+1)*per]
	// want[i] holds the stable and canary revisions' InferQ class of
	// pool[i] (equal when there is no canary).
	want [][2]int
}

func newClassifyInputs(seed int64, per int, stable, canary *homunculus.Pipeline) (*classifyInputs, error) {
	pool, err := vectorPool(seed, poolVectors)
	if err != nil {
		return nil, err
	}
	in := &classifyInputs{per: per, pool: pool, want: make([][2]int, len(pool))}
	for i, x := range pool {
		for k, pipe := range []*homunculus.Pipeline{stable, canary} {
			if pipe == nil {
				in.want[i][k] = in.want[i][0]
				continue
			}
			c, err := pipe.Apps[0].Model.InferQ(x)
			if err != nil {
				return nil, fmt.Errorf("reference InferQ: %w", err)
			}
			in.want[i][k] = c
		}
	}
	for k := 0; (k+1)*per <= len(pool); k++ {
		raw, err := json.Marshal(httpapi.ClassifyRequest{Features: pool[k*per : (k+1)*per]})
		if err != nil {
			return nil, err
		}
		in.bodies = append(in.bodies, raw)
	}
	return in, nil
}

func (in *classifyInputs) vectors(k int) [][]float64 {
	k %= len(in.bodies)
	return in.pool[k*in.per : (k+1)*in.per]
}

// check verifies one response to request k: every class is one the
// live revisions compute for its vector, and exactly the shared answer
// wherever they agree.
func (in *classifyInputs) check(k int, resp httpapi.ClassifyResponse) error {
	k %= len(in.bodies)
	if resp.Error != "" || resp.Dropped != 0 || len(resp.Classes) != in.per {
		return fmt.Errorf("request %d: %d classes, %d dropped, error %q", k, len(resp.Classes), resp.Dropped, resp.Error)
	}
	for i, c := range resp.Classes {
		w := in.want[k*in.per+i]
		if c != w[0] && c != w[1] {
			return fmt.Errorf("request %d vector %d: class %d, want %d (stable) or %d (canary)", k, i, c, w[0], w[1])
		}
	}
	return nil
}

// classifyOnce sends request k and checks the answer.
func (r *run) classifyOnce(d *daemon, in *classifyInputs, k int) error {
	code, raw, err := d.do(http.MethodPost, "/v1/endpoints/"+endpointName+"/classify", in.bodies[k%len(in.bodies)])
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("classify: %d %s", code, bytes.TrimSpace(raw))
	}
	var resp httpapi.ClassifyResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		return err
	}
	return in.check(k, resp)
}

func (r *run) classify(batch bool) error {
	stableSpec, canarySpec := classifySpecs(r.seed)
	specs := []spec{stableSpec}
	per, rate := 1, float64(openRateSingle)
	if batch {
		specs = append(specs, canarySpec)
		per, rate = batchVectors, openRateBatch
	}
	var refs []*homunculus.Pipeline
	for _, s := range specs {
		pipe, err := refCompile(s)
		if err != nil {
			return err
		}
		refs = append(refs, pipe)
	}
	for i, pipe := range refs {
		m := pipe.Apps[0].Model
		r.set(fmt.Sprintf("model%d.params", i), float64(m.ParamCount()), "count", 0, fmt.Sprintf("hidden %v", m.HiddenWidths()))
	}
	var canaryRef *homunculus.Pipeline
	if batch {
		canaryRef = refs[1]
	}
	in, err := newClassifyInputs(r.seed, per, refs[0], canaryRef)
	if err != nil {
		return err
	}

	d, err := r.startSetups(func(d *daemon) error {
		jobs, _, err := r.runJobs(d, specs)
		if err != nil {
			return err
		}
		if len(jobs) != len(specs) {
			return fmt.Errorf("setup compiled %d of %d specs", len(jobs), len(specs))
		}
		for i, j := range jobs {
			r.checkSameCode(j, refs[i])
		}
		body, _ := json.Marshal(httpapi.EndpointRequest{Name: endpointName, JobID: jobs[0].id})
		if err := d.postJSON("/v1/endpoints", body, http.StatusCreated, nil); err != nil {
			return err
		}
		if batch {
			body, _ := json.Marshal(httpapi.RolloutRequest{JobID: jobs[1].id, CanaryPercent: 50})
			if err := d.postJSON("/v1/endpoints/"+endpointName+"/rollout", body, http.StatusOK, nil); err != nil {
				return err
			}
		}
		hits := 0
		for _, j := range jobs {
			if j.final.CacheHit {
				hits++
			}
		}
		r.set("service.cache_hit_frac", float64(hits)/float64(len(jobs)), "fraction", len(jobs), "setup compiles")
		for k := 0; k < warmupReqs; k++ {
			if err := r.classifyOnce(d, in, k); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	defer d.kill()

	// The gated throughput gets most of the run; the open loop's
	// latency samples need less time to fill their percentiles.
	closed := time.Duration(0.65 * r.seconds * float64(time.Second))
	open := time.Duration(0.25 * r.seconds * float64(time.Second))
	vps, n := r.closedLoop(d, in, closed)
	r.set("ops_per_s", vps, "1/s", n, "vectors per second, closed loop")
	r.set("classify_vps", vps, "1/s", n, "")

	samples := r.openLoop(d, in, rate, open)
	var lat, late []float64
	for _, s := range samples {
		lat = append(lat, s.Latency().Seconds())
		late = append(late, s.Late().Seconds())
	}
	r.setQ("classify_p50_us", percentile(lat, 50), "us")
	r.setQ("classify_p99_us", tail(lat), "us")
	r.setQ("gen.late_p99_us", tail(late), "us")
	r.set("open_rate", rate, "1/s", len(samples), "fixed open-loop request rate")

	if err := r.endpointCounts(d); err != nil {
		return err
	}

	if r.trace {
		if err := r.ladder(d, refs[0], canaryRef, in); err != nil {
			return err
		}
		// Stage spans for the per-layer report: one sweep of the compile mix.
		if _, _, err := r.runJobs(d, compileMix(r.seed, 0)); err != nil {
			return err
		}
	}
	return r.finish(d)
}

// closedLoop runs maxConns clients back to back for dur and returns
// the vectors classified per second, the median over rateWindow
// windows, and the request count.
func (r *run) closedLoop(d *daemon, in *classifyInputs, dur time.Duration) (float64, int) {
	var next atomic.Int64
	var wg sync.WaitGroup
	done := make([][]time.Duration, maxConns)
	start := time.Now()
	stop := start.Add(dur)
	for c := 0; c < maxConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(stop) {
				k := int(next.Add(1) - 1)
				r.attempt(1)
				if err := r.classifyOnce(d, in, k); err != nil {
					r.fail("closed loop: %v", err)
					continue
				}
				done[c] = append(done[c], time.Since(start))
			}
		}()
	}
	wg.Wait()
	var all []time.Duration
	for _, ds := range done {
		all = append(all, ds...)
	}
	return median(windowRates(all, dur, rateWindow)) * float64(in.per), len(all)
}

// openLoop sends requests on a fixed schedule at rate per second for
// dur from maxConns senders. A request waits for a free sender when
// both are busy; its latency still counts from its due time.
func (r *run) openLoop(d *daemon, in *classifyInputs, rate float64, dur time.Duration) []openLoopSample {
	n := int(rate * dur.Seconds())
	samples := make([]openLoopSample, n)
	oks := make([]bool, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now().Add(time.Millisecond)
	for c := 0; c < maxConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1) - 1)
				if k >= n {
					return
				}
				due := dueTime(start, rate, k)
				sleepUntil(due)
				sent := time.Now()
				r.attempt(1)
				err := r.classifyOnce(d, in, k)
				samples[k] = openLoopSample{Due: due, Sent: sent, Done: time.Now()}
				if err != nil {
					r.fail("open loop: %v", err)
					continue
				}
				oks[k] = true
				r.tr.add("classify.request", fmt.Sprint(k), sent, samples[k].Done, -1)
			}
		}()
	}
	wg.Wait()
	var out []openLoopSample
	for k, s := range samples {
		if oks[k] {
			out = append(out, s)
		}
	}
	return out
}

// sleepUntil blocks until t with nanosleep on a thread whose timer
// slack is 1ns, so it wakes within microseconds of t; the runtime's own
// timers wake up to ~1ms late. The goroutine holds its thread only for
// the sleep, so the request that follows is scheduled normally.
func sleepUntil(t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	const prSetTimerSlack = 29
	_, _, _ = syscall.Syscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil)
}

// endpointCounts records the serving counts of the daemon's endpoint:
// mean batch and drops from /stats (counts only — its latency
// quantiles are log2 bucket bounds), and the canary's share of
// classified vectors from the per-revision counts.
func (r *run) endpointCounts(d *daemon) error {
	var st httpapi.EndpointStatsJSON
	if err := d.getJSON("/v1/endpoints/"+endpointName+"/stats", &st); err != nil {
		return err
	}
	r.set("serve.mean_batch", st.Merged.MeanBatch, "count", int(st.Merged.Batches), "vectors per harvest, from /stats counts")
	r.set("serve.dropped", float64(st.Merged.Dropped), "count", 0, "")
	var canary, all uint64
	for _, rev := range st.Revisions {
		if rev.Stats == nil {
			continue
		}
		all += rev.Stats.Completed
		if rev.State == "canary" {
			canary += rev.Stats.Completed
		}
	}
	r.set("endpoint.canary_frac", float64(canary)/float64(max(all, 1)), "fraction", int(all), "")
	return nil
}
