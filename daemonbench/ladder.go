package main

// Traced runs only: the per-layer ladder. The same seeded requests are
// driven down handler → endpoint → runtime → predictor in this process,
// and over loopback to the daemon, with a span around every call into a
// layer's public function. The store and service rungs time their
// public calls on a scratch state dir.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"repro/alchemy"
	"repro/internal/httpapi"
	"repro/internal/ir"
	"repro/internal/serve"
	"repro/internal/store"

	homunculus "repro"
)

// ladderReqs is how many requests each classify rung times, and
// ladderRate the loopback rung's pace in single-vector requests/s.
const (
	ladderReqs = 2000
	ladderRate = 2000
)

// ladderFromJob runs the ladder for a compile workload on its DNN job:
// the job becomes an endpoint on the daemon, and the in-process rungs
// serve the same spec compiled here.
func (r *run) ladderFromJob(d *daemon, jobs []*jobRun) error {
	var j *jobRun
	for _, c := range jobs {
		if c.spec.Name == "dnn-taurus" {
			j = c
			break
		}
	}
	if j == nil {
		return fmt.Errorf("ladder: no compiled dnn-taurus job")
	}
	ref, err := refCompile(j.spec)
	if err != nil {
		return err
	}
	r.checkSameCode(j, ref)
	body, _ := json.Marshal(httpapi.EndpointRequest{Name: endpointName, JobID: j.id})
	if err := d.postJSON("/v1/endpoints", body, http.StatusCreated, nil); err != nil {
		return err
	}
	in, err := newClassifyInputs(r.seed, 1, ref, nil)
	if err != nil {
		return err
	}
	if err := r.ladder(d, ref, nil, in); err != nil {
		return err
	}
	return r.endpointCounts(d)
}

// ladder times the classify rungs and the store and service rungs.
func (r *run) ladder(d *daemon, stable, canary *homunculus.Pipeline, in *classifyInputs) error {
	// The in-process endpoint and runtime get the daemon endpoint's
	// shard count and otherwise its defaults (greedy flush). Re-applying
	// the fully resolved config would mark the delay as set explicitly,
	// which turns deadline batching on.
	var cfg homunculus.ServingConfig
	if err := d.getJSON("/v1/endpoints/"+endpointName+"/config", &cfg); err != nil {
		return err
	}
	svc := homunculus.New(homunculus.ServiceOptions{})
	defer svc.Close()
	ep, err := svc.CreateEndpointPipeline(endpointName, stable, homunculus.EndpointOptions{Shards: cfg.Shards})
	if err != nil {
		return err
	}
	if canary != nil {
		if _, err := ep.RolloutPipeline(canary, homunculus.RolloutOptions{CanaryPercent: 50}); err != nil {
			return err
		}
	}
	model := stable.Apps[0].Model
	rt, err := serve.New(model, serve.Options{Shards: cfg.Shards})
	if err != nil {
		return err
	}
	defer rt.Close()
	pred, err := ir.NewPredictor(model)
	if err != nil {
		return err
	}
	handler := httpapi.NewServer(svc)
	path := "/v1/endpoints/" + endpointName + "/classify"

	// Handler allocations: requests and recorders are built up front so
	// only ServeHTTP runs between the two counter reads.
	reqs := make([]*http.Request, ladderReqs)
	recs := make([]*httptest.ResponseRecorder, ladderReqs)
	for k := range reqs {
		reqs[k] = httptest.NewRequest(http.MethodPost, path, bytes.NewReader(in.bodies[k%len(in.bodies)]))
		recs[k] = httptest.NewRecorder()
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for k := range reqs {
		handler.ServeHTTP(recs[k], reqs[k])
	}
	runtime.ReadMemStats(&after)
	r.set("httpapi.classify_allocs", float64(after.Mallocs-before.Mallocs)/ladderReqs, "count", ladderReqs, "mallocs per handler call")

	r.attempt(ladderReqs)
	for k := 0; k < ladderReqs; k++ {
		id := fmt.Sprintf("ladder-%d", k)
		xs := in.vectors(k)

		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(in.bodies[k%len(in.bodies)]))
		rec := httptest.NewRecorder()
		t0 := time.Now()
		handler.ServeHTTP(rec, req)
		r.tr.add("ladder.handler", id, t0, time.Now(), -1)
		if rec.Code != http.StatusOK {
			r.fail("ladder handler: %d %s", rec.Code, rec.Body.String())
			continue
		}

		t0 = time.Now()
		classes, _, err := ep.ClassifyBatch(xs)
		r.tr.add("ladder.endpoint", id, t0, time.Now(), -1)
		if err == nil {
			err = in.check(k, httpapi.ClassifyResponse{Classes: classes})
		}
		if err != nil {
			r.fail("ladder endpoint: %v", err)
			continue
		}

		t0 = time.Now()
		classes, _, err = rt.ClassifyBatch(xs)
		r.tr.add("ladder.runtime", id, t0, time.Now(), -1)
		if err == nil {
			err = in.check(k, httpapi.ClassifyResponse{Classes: classes})
		}
		if err != nil {
			r.fail("ladder runtime: %v", err)
			continue
		}

		t0 = time.Now()
		for _, x := range xs {
			if _, err = pred.Classify(x); err != nil {
				break
			}
		}
		r.tr.add("ladder.predictor", id, t0, time.Now(), -1)
		if err != nil {
			r.fail("ladder predictor: %v", err)
		}
	}

	// Loopback rung: the same requests against the daemon from one
	// sender paced well below capacity, so none queues behind another.
	rate := ladderRate / float64(in.per)
	if in.per > 1 {
		rate *= 16
	}
	late := make([]float64, 0, ladderReqs)
	r.attempt(ladderReqs)
	start := time.Now()
	for k := 0; k < ladderReqs; k++ {
		due := dueTime(start, rate, k)
		sleepUntil(due)
		t0 := time.Now()
		late = append(late, openLoopSample{Due: due, Sent: t0}.Late().Seconds())
		err := r.classifyOnce(d, in, k)
		r.tr.add("ladder.e2e", fmt.Sprintf("ladder-%d", k), t0, time.Now(), -1)
		if err != nil {
			r.fail("ladder loopback: %v", err)
		}
	}
	if _, ok := r.metrics["gen.late_p99_us"]; !ok {
		r.setQ("gen.late_p99_us", tail(late), "us")
	}

	rungs := []string{"ladder.predictor", "ladder.runtime", "ladder.endpoint", "ladder.handler", "ladder.e2e"}
	med := map[string]float64{}
	for _, s := range rungs {
		med[s] = median(r.tr.durations(s))
	}
	perVector := r.tr.durations("ladder.predictor")
	for i := range perVector {
		perVector[i] /= float64(in.per)
	}
	r.setQ("ir.predict_ns", percentile(perVector, 50), "ns")
	r.setSpanMedian("serve.runtime_batch_us", "ladder.runtime", "us")
	r.setSpanMedian("endpoint.classify_batch_us", "ladder.endpoint", "us")
	r.setSpanMedian("httpapi.classify_handler_us", "ladder.handler", "us")
	r.setSpanMedian("ladder.e2e_us", "ladder.e2e", "us")
	r.set("net.transport_us", (med["ladder.e2e"]-med["ladder.handler"])*1e6, "us", ladderReqs, "loopback p50 minus handler p50")
	var inversions []string
	for i := 1; i < len(rungs); i++ {
		if med[rungs[i-1]] > med[rungs[i]] {
			inversions = append(inversions, rungs[i-1]+" > "+rungs[i])
		}
	}
	r.set("ladder.inversions", float64(len(inversions)), "count", 0,
		fmt.Sprintf("rung medians out of the order predictor, runtime, endpoint, handler, e2e: %v", inversions))
	return r.microRungs(stable)
}

// microRungs times the service and store layers' public calls.
const (
	microFast = 2000 // calls per fast rung
	microSlow = 50   // calls per fsyncing rung
)

func (r *run) microRungs(pipe *homunculus.Pipeline) error {
	s, _ := classifySpecs(r.seed)
	p, err := alchemy.PlatformFromJSON(s.Req.Platform)
	if err != nil {
		return err
	}
	cfg := s.Req.Search.Config()
	for k := 0; k < microFast; k++ {
		t0 := time.Now()
		_, err := homunculus.SpecHash(p, cfg)
		r.tr.add("service.spec_hash", "", t0, time.Now(), -1)
		if err != nil {
			return err
		}
	}
	r.setSpanMedian("service.spec_hash_us", "service.spec_hash", "us")

	// Durable in-process Submit: the first submission compiles, the
	// timed ones are cache hits waited on one at a time.
	svc, err := homunculus.Open(homunculus.ServiceOptions{StateDir: r.stateDir("micro-service")})
	if err != nil {
		return err
	}
	defer svc.Close()
	for k := 0; k <= microSlow*4; k++ {
		t0 := time.Now()
		job, err := svc.Submit(context.Background(), p, homunculus.WithSearchConfig(cfg))
		if k > 0 {
			r.tr.add("service.submit", "", t0, time.Now(), -1)
		}
		if err == nil {
			_, err = job.Wait(context.Background())
		}
		if err != nil {
			return fmt.Errorf("service rung: %w", err)
		}
	}
	r.setSpanMedian("service.submit_us", "service.submit", "us")

	st, _, _, err := store.Open(r.stateDir("micro-store"), nil)
	if err != nil {
		return err
	}
	defer st.Close()
	rec := store.Record{Op: store.OpDone, Job: "job-000001", SpecHash: "0123456789abcdef"}
	for k := 0; k < microFast; k++ {
		t0 := time.Now()
		err := st.Journal.Append(rec, false)
		r.tr.add("store.append", "", t0, time.Now(), -1)
		if err != nil {
			return err
		}
	}
	for k := 0; k < microSlow; k++ {
		t0 := time.Now()
		err := st.Journal.Append(rec, true)
		r.tr.add("store.append_sync", "", t0, time.Now(), -1)
		if err != nil {
			return err
		}
	}
	payload, err := homunculus.MarshalPipeline(pipe)
	if err != nil {
		return err
	}
	keys := make([]string, microSlow)
	for k := range keys {
		sum := sha256.Sum256([]byte(fmt.Sprint(k)))
		keys[k] = hex.EncodeToString(sum[:])
		t0 := time.Now()
		err := st.Artifacts.Put(keys[k], payload)
		r.tr.add("store.artifact_put", keys[k], t0, time.Now(), -1)
		if err != nil {
			return err
		}
	}
	for k := 0; k < microFast; k++ {
		t0 := time.Now()
		got, err := st.Artifacts.Get(keys[k%len(keys)])
		r.tr.add("store.artifact_get", keys[k%len(keys)], t0, time.Now(), -1)
		if err != nil {
			return err
		}
		if !bytes.Equal(got, payload) {
			r.fail("store rung: artifact %s read back different bytes", keys[k%len(keys)])
		}
	}
	r.setSpanMedian("store.append_us", "store.append", "us")
	r.setSpanMedian("store.append_sync_ms", "store.append_sync", "ms")
	r.setSpanMedian("store.artifact_put_ms", "store.artifact_put", "ms")
	r.setSpanMedian("store.artifact_get_us", "store.artifact_get", "us")
	return nil
}
