package main

// Compile path: job submission over POST /v1/jobs, progress over SSE,
// the compile-cold sweep and the compile-warm resubmit loop.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/httpapi"
)

// jobRun is one submitted job as the client saw it.
type jobRun struct {
	spec     spec
	due      time.Time // when the generator meant to submit it
	submit   time.Time // POST sent
	accepted time.Time // 202 received
	id       string
	events   []progress
	terminal time.Time
	final    httpapi.JobJSON // terminal SSE state
	status   httpapi.JobJSON // GET ?include=code after the terminal state
}

// progress is one SSE progress event, stamped on receipt.
type progress struct {
	httpapi.EventJSON
	at time.Time
}

func (j *jobRun) latency() time.Duration { return j.terminal.Sub(j.submit) }

// submitJob posts a spec and records the round trip until the 202.
func (r *run) submitJob(d *daemon, s spec) (*jobRun, error) {
	j := &jobRun{spec: s, submit: time.Now()}
	var acc httpapi.JobJSON
	err := d.postJSON("/v1/jobs", s.body(), http.StatusAccepted, &acc)
	j.accepted = time.Now()
	if err != nil {
		return nil, fmt.Errorf("submit %s: %w", s.Name, err)
	}
	j.id = acc.ID
	return j, nil
}

// awaitJob follows a job's SSE stream to its terminal state.
func (r *run) awaitJob(d *daemon, j *jobRun) error {
	final, err := d.follow(context.Background(), j.id, func(ev sseEvent) {
		if ev.Name != "progress" {
			return
		}
		var p progress
		if json.Unmarshal(ev.Data, &p.EventJSON) == nil {
			p.at = ev.At
			j.events = append(j.events, p)
		}
	})
	j.terminal = time.Now()
	j.final = final
	return err
}

// fetchJob reads the finished job with its generated code.
func (r *run) fetchJob(d *daemon, j *jobRun) error {
	return d.getJSON("/v1/jobs/"+j.id+"?include=code", &j.status)
}

// checkCompiled verifies a compiled job: done, every app feasible with
// non-empty code, and a passing validation verdict when requested. It
// records the artifacts for the digest and returns whether all held.
func (r *run) checkCompiled(j *jobRun) bool {
	st := j.status
	bad := func(format string, args ...any) bool {
		r.fail("job %s (%s): %s", j.id, j.spec.Name, fmt.Sprintf(format, args...))
		return false
	}
	if j.final.State != "done" || st.State != "done" {
		return bad("state %s/%s %s", j.final.State, st.State, st.Error)
	}
	if st.Result == nil || len(st.Result.Apps) == 0 {
		return bad("no result")
	}
	for _, app := range st.Result.Apps {
		switch {
		case !app.Feasible:
			return bad("app %s not feasible", app.Name)
		case app.Code == "":
			return bad("app %s has no code", app.Name)
		case j.spec.Req.Validate && (app.Validation == nil || !app.Validation.OK):
			return bad("app %s failed validation: %+v", app.Name, app.Validation)
		}
		r.addArtifact(st.SpecHash, app.Name, app.Code)
		r.mu.Lock()
		r.codeBytes = append(r.codeBytes, float64(len(app.Code)))
		r.mu.Unlock()
	}
	return true
}

// runJobs submits specs as one burst (all due at once, from maxConns
// submitters) and follows every job to its terminal state, then fetches
// and checks each. Followers take connections in submission order —
// the daemon's FIFO queue dispatches in that order too — so each job's
// stream is open before its first stage event in the common case.
func (r *run) runJobs(d *daemon, specs []spec) ([]*jobRun, time.Duration, error) {
	jobs := make([]*jobRun, len(specs))
	errs := make([]error, len(specs))
	due := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < maxConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(specs) {
					return
				}
				jobs[i], errs[i] = r.submitJob(d, specs[i])
				if jobs[i] != nil {
					jobs[i].due = due
				}
			}
		}()
	}
	wg.Wait()
	slots := make(chan struct{}, maxConns)
	for i, j := range jobs {
		if j == nil {
			continue
		}
		slots <- struct{}{}
		wg.Add(1)
		go func(i int, j *jobRun) {
			defer wg.Done()
			defer func() { <-slots }()
			errs[i] = r.awaitJob(d, j)
		}(i, j)
	}
	wg.Wait()
	elapsed := time.Since(due)
	r.attempt(len(specs))
	var out []*jobRun
	for i, j := range jobs {
		if errs[i] == nil {
			errs[i] = r.fetchJob(d, j)
		}
		if errs[i] != nil {
			r.fail("%s: %v", specs[i].Name, errs[i])
			continue
		}
		if r.checkCompiled(j) {
			out = append(out, j)
			r.traceJob(j)
		}
	}
	if len(out) == 0 {
		return nil, elapsed, fmt.Errorf("no job of the burst compiled")
	}
	return out, elapsed, nil
}

// stageSpanName maps an SSE progress event to its layer's span name.
func stageSpanName(ev httpapi.EventJSON) string {
	switch ev.Stage {
	case "load":
		return "loaders.load"
	case "search":
		if ev.Candidate != "" {
			return "core.search_" + ev.Candidate
		}
		return "core.search"
	case "compose":
		return "core.compose"
	case "codegen":
		return "backend.codegen"
	case "validate":
		return "validate"
	}
	return "stage." + string(ev.Stage)
}

// traceJob turns a compiled job's client-side timeline into spans: the
// submit round trip, dispatch (202 → first stage event: queue wait,
// hashing, cache lookup), one span per stage unit from its start and
// done events, and finish (last stage event → terminal state: artifact
// write-through and journaling).
func (r *run) traceJob(j *jobRun) {
	root := r.tr.add("job", j.id, j.submit, j.terminal, -1)
	if root < 0 {
		return
	}
	r.tr.add("httpapi.submit", j.id, j.submit, j.accepted, root)
	if len(j.events) == 0 {
		r.tr.add("service.dispatch", j.id, j.accepted, j.terminal, root)
		return
	}
	r.tr.add("service.dispatch", j.id, j.accepted, j.events[0].at, root)
	r.tr.add("service.finish", j.id, j.events[len(j.events)-1].at, j.terminal, root)
	type key struct{ stage, app, cand string }
	open := map[key]time.Time{}
	searchSpan := map[string]int{}
	var pending []progress // candidate spans waiting for their app span
	for _, ev := range j.events {
		k := key{string(ev.Stage), ev.App, ev.Candidate}
		if !ev.Done {
			open[k] = ev.at
			continue
		}
		start, ok := open[k]
		if !ok {
			continue
		}
		delete(open, k)
		if ev.Stage == "search" && ev.Candidate != "" {
			pending = append(pending, progress{EventJSON: ev.EventJSON, at: start})
			pending = append(pending, ev)
			continue
		}
		i := r.tr.add(stageSpanName(ev.EventJSON), j.id, start, ev.at, root)
		if ev.Stage == "search" {
			searchSpan[ev.App] = i
		}
	}
	// Between the last load and the first search start the apps' search
	// tasks wait for the worker pool the daemon's other compile shares.
	var lastLoad, firstSearch time.Time
	for _, ev := range j.events {
		switch {
		case ev.Stage == "load" && ev.Done:
			lastLoad = ev.at
		case ev.Stage == "search" && !ev.Done && firstSearch.IsZero():
			firstSearch = ev.at
		}
	}
	if !lastLoad.IsZero() && firstSearch.After(lastLoad) {
		r.tr.add("core.search_wait", j.id, lastLoad, firstSearch, root)
	}
	for i := 0; i+1 < len(pending); i += 2 {
		parent, ok := searchSpan[pending[i].App]
		if !ok {
			parent = root
		}
		r.tr.add(stageSpanName(pending[i].EventJSON), j.id, pending[i].at, pending[i+1].at, parent)
	}
}

// jobLatencies returns submit-to-terminal times of jobs.
func jobLatencies(jobs []*jobRun) []time.Duration {
	out := make([]time.Duration, len(jobs))
	for i, j := range jobs {
		out[i] = j.latency()
	}
	return out
}

// setUp starts a fresh daemon for setup round i and runs the
// workload's own setup on it, returning the daemon and the time from
// launch until the setup finished.
func (r *run) setUp(i int, prepare func(d *daemon) error) (*daemon, time.Duration, error) {
	t0 := time.Now()
	tag := fmt.Sprintf("setup-%d", i)
	d, boot, err := startDaemon(r.daemonBin, r.stateDir(tag), r.http, true)
	if err != nil {
		return nil, 0, err
	}
	r.tr.add("daemon.start", tag, t0, t0.Add(boot), -1)
	if err := prepare(d); err != nil {
		d.kill()
		return nil, 0, err
	}
	return d, time.Since(t0), nil
}

// startSetups sets the workload up `setups` times on fresh daemons,
// keeping the last daemon running; setup_s is the median.
func (r *run) startSetups(prepare func(d *daemon) error) (*daemon, error) {
	var times []time.Duration
	var d *daemon
	for i := 0; i < setups; i++ {
		if err := d.stop(); err != nil {
			return nil, err
		}
		var took time.Duration
		var err error
		if d, took, err = r.setUp(i, prepare); err != nil {
			return nil, err
		}
		times = append(times, took)
	}
	r.setQ("setup_s", percentile(secs(times), 50), "s")
	return d, nil
}

// compileCold: repeated sweeps of distinct specs, each a burst of the
// compile mix with fresh search seeds, so every job misses the cache.
// The sweep count is fixed per measured second rather than by the
// clock, so the journal the restart replays does not depend on speed.
func coldSweeps(seconds float64) int { return max(2, int(coldSweepsPerSecond*seconds)) }

const coldSweepsPerSecond = 2

func (r *run) compileCold() error {
	// Setup warms the daemon with one compile of a spec no sweep uses.
	warm := []spec{dnnSpec(mix(r.seed, 3), true)}
	d, err := r.startSetups(func(d *daemon) error {
		_, _, err := r.runJobs(d, warm)
		return err
	})
	if err != nil {
		return err
	}
	defer d.kill()
	var sweeps []time.Duration
	var rates []float64
	var jobs []*jobRun
	for s := 0; s < coldSweeps(r.seconds); s++ {
		done, elapsed, err := r.runJobs(d, compileMix(r.seed, s))
		if err != nil {
			return err
		}
		sweeps = append(sweeps, elapsed)
		rates = append(rates, float64(len(done))/elapsed.Seconds())
		jobs = append(jobs, done...)
		for _, j := range done {
			if j.final.CacheHit {
				r.fail("cold job %s was a cache hit", j.id)
			}
		}
	}
	lat := secs(jobLatencies(jobs))
	r.set("ops_per_s", median(rates), "1/s", len(jobs), fmt.Sprintf("jobs per second of sweep, median of %d sweeps", len(rates)))
	r.setQ("sweep_s", percentile(secs(sweeps), 50), "s")
	r.setQ("job_p50_ms", percentile(lat, 50), "ms")
	r.set("service.cache_hit_frac", 0, "fraction", len(jobs), "")
	var late []float64
	for _, j := range jobs {
		late = append(late, j.submit.Sub(j.due).Seconds())
	}
	r.setQ("gen.late_p99_us", tail(late), "us")
	if r.trace {
		if err := r.ladderFromJob(d, jobs); err != nil {
			return err
		}
	}
	return r.finish(d)
}

// compileWarm: after a cold compile of the mix in setup, resubmit the
// same specs from maxConns closed-loop clients. Each setup round runs
// the same fixed number of resubmits on its own fresh daemon, so the
// journal the restart replays has the same length whatever the
// daemon's speed, and every job is still retained for the code check.
func warmJobs(seconds float64) int {
	return min(int(warmJobsPerSecond*seconds), 4000)
}

// warmJobsPerSecond sizes each round; the cap keeps every job of a
// round within the daemon's default job retention (4096).
const warmJobsPerSecond = 200

func (r *run) compileWarm() error {
	specs := compileMix(r.seed, 0)
	var cold []*jobRun
	prepare := func(d *daemon) error {
		jobs, _, err := r.runJobs(d, specs)
		if err == nil && len(jobs) != len(specs) {
			err = fmt.Errorf("setup compiled %d of %d specs", len(jobs), len(specs))
		}
		cold = jobs
		return err
	}
	n := warmJobs(r.seconds)
	var setupTimes []time.Duration
	var rates, lat []float64
	var d *daemon
	defer func() { d.kill() }()
	for i := 0; i < setups; i++ {
		if err := d.stop(); err != nil {
			return err
		}
		var took time.Duration
		var err error
		if d, took, err = r.setUp(i, prepare); err != nil {
			return err
		}
		setupTimes = append(setupTimes, took)
		want := map[string]httpapi.JobJSON{}
		for _, j := range cold {
			want[j.spec.Name] = j.status
		}
		hits, start, elapsed := r.resubmit(d, specs, n)
		var done []time.Duration
		for i, j := range hits {
			if j == nil {
				continue
			}
			if err := r.fetchJob(d, j); err != nil {
				r.fail("resubmit %d: %v", i, err)
				continue
			}
			if !sameArtifact(j, want[j.spec.Name]) {
				r.fail("resubmit %d (%s): state %s cache_hit %v, artifact differs from the cold compile",
					i, j.spec.Name, j.status.State, j.final.CacheHit)
				continue
			}
			done = append(done, j.terminal.Sub(start))
			lat = append(lat, j.latency().Seconds())
			root := r.tr.add("resubmit", j.id, j.submit, j.terminal, -1)
			if root >= 0 {
				r.tr.add("httpapi.submit", j.id, j.submit, j.accepted, root)
				r.tr.add("service.hit", j.id, j.accepted, j.terminal, root)
			}
		}
		rates = append(rates, windowRates(done, elapsed, rateWindow)...)
	}
	r.setQ("setup_s", percentile(secs(setupTimes), 50), "s")
	rate := percentile(rates, 50)
	r.set("ops_per_s", rate.Value, "1/s", len(lat), fmt.Sprintf("cache-hit resubmits per second, median of %d windows over %d rounds of %d", len(rates), setups, n))
	r.set("resubmit_per_s", rate.Value, "1/s", len(lat), "")
	r.setQ("resubmit_p50_us", percentile(lat, 50), "us")
	r.setQ("resubmit_p99_us", tail(lat), "us")
	r.set("service.cache_hit_frac", float64(len(lat))/float64(n*setups), "fraction", n*setups, "")
	if r.trace {
		if err := r.ladderFromJob(d, cold); err != nil {
			return err
		}
	}
	return r.finish(d)
}

// resubmit sends n submissions of specs round-robin from maxConns
// closed-loop clients, each followed to its terminal state, and returns
// them with the loop's start and duration.
func (r *run) resubmit(d *daemon, specs []spec, n int) ([]*jobRun, time.Time, time.Duration) {
	hits := make([]*jobRun, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < maxConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				j, err := r.submitJob(d, specs[i%len(specs)])
				if err == nil {
					err = r.awaitJob(d, j)
				}
				if err != nil {
					r.fail("resubmit %d: %v", i, err)
					continue
				}
				hits[i] = j
			}
		}()
	}
	wg.Wait()
	r.attempt(n)
	return hits, start, time.Since(start)
}

// sameArtifact reports whether a warm hit returned the cold compile's
// spec hash and byte-identical code for every app.
func sameArtifact(j *jobRun, ref httpapi.JobJSON) bool {
	st := j.status
	if !j.final.CacheHit || st.State != "done" || st.SpecHash != ref.SpecHash || st.Result == nil || ref.Result == nil ||
		len(st.Result.Apps) != len(ref.Result.Apps) {
		return false
	}
	for i, app := range st.Result.Apps {
		if app.Code == "" || app.Code != ref.Result.Apps[i].Code {
			return false
		}
	}
	return true
}
