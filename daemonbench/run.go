package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// endToEnd and perLayer are the metric names the final JSON line
// carries in untraced and traced runs (BENCHMARK.json lists the same).
var (
	endToEnd = []string{"setup_s", "peak_rss_mb", "ops_per_s", "restart_s"}
	perLayer = []string{
		"httpapi.classify_handler_us", "httpapi.classify_allocs", "httpapi.submit_us", "net.transport_us",
		"endpoint.classify_batch_us", "endpoint.canary_frac",
		"serve.runtime_batch_us", "serve.mean_batch", "serve.dropped", "ir.predict_ns",
		"service.submit_us", "service.spec_hash_us", "service.cache_hit_frac", "service.dispatch_ms", "service.finish_ms",
		"loaders.load_ms", "core.search_ms", "core.search_dnn_ms", "core.search_svm_ms", "core.search_kmeans_ms",
		"core.search_dtree_ms", "core.compose_ms", "backend.codegen_ms", "backend.code_bytes", "validate.ms",
		"store.append_us", "store.append_sync_ms", "store.artifact_put_ms", "store.artifact_get_us",
		"store.journal_records", "store.done_requeued", "store.errors", "gen.late_p99_us",
	}
)

// metric is one reported number. N is its sample count and Note says
// which order statistic it is, for the human-readable report.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int
	note  string
}

// setups is how many times a run sets its workload up from scratch;
// setup_s is the median.
const setups = 9

// restarts is how many times a run restarts the daemon on (a copy of)
// its final state dir; restart_s is the median. Restart i starts no
// earlier than i×restartGap into the phase, so the samples span
// seconds of host load rather than a fraction of one.
const (
	restarts   = 21
	restartGap = 150 * time.Millisecond
)

type run struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	daemonBin string
	dir       string
	http      *http.Client
	tr        *tracer

	mu        sync.Mutex
	attempted int
	failed    int
	failures  []string
	metrics   map[string]metric
	order     []string
	artifacts map[string]string // spec_hash/app → code, for the digest
	codeBytes []float64         // generated code size of every checked app
}

func newRun(workload string, seed int64, seconds float64, trace bool, daemonBin, dir string) *run {
	return &run{
		workload: workload, seed: seed, seconds: seconds, trace: trace,
		daemonBin: daemonBin, dir: dir, http: newClient(),
		tr:      &tracer{on: trace, epoch: time.Now()},
		metrics: map[string]metric{}, artifacts: map[string]string{},
	}
}

// execute runs the workload; errors that abort it count as a failure.
func (r *run) execute() {
	var err error
	switch r.workload {
	case "classify-single":
		err = r.classify(false)
	case "classify-batch":
		err = r.classify(true)
	case "compile-cold":
		err = r.compileCold()
	case "compile-warm":
		err = r.compileWarm()
	}
	if err != nil {
		r.attempt(1)
		r.fail("%v", err)
	}
	expected := endToEnd
	if r.trace {
		expected = perLayer
	}
	for _, name := range expected {
		if _, ok := r.metrics[name]; !ok {
			r.fail("no value for metric %s", name)
		}
	}
	if r.attempted > 0 {
		r.set("fail_frac", float64(r.failed)/float64(r.attempted), "fraction", r.attempted, "")
	}
}

func (r *run) attempt(n int) {
	r.mu.Lock()
	r.attempted += n
	r.mu.Unlock()
}

// fail counts one failed operation and keeps the first few messages.
func (r *run) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *run) set(name string, v float64, unit string, n int, note string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.fail("metric %s is %v", name, v)
		v = 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit, n: n, note: note}
}

// setQ records an order statistic of samples given in seconds,
// converted to unit.
func (r *run) setQ(name string, q quantile, unit string) {
	r.set(name, q.Value*unitScale(unit), unit, q.N, fmt.Sprintf("p%g, %d beyond", q.P, q.Beyond))
}

func unitScale(unit string) float64 {
	switch unit {
	case "s":
		return 1
	case "ms":
		return 1e3
	case "us":
		return 1e6
	case "ns":
		return 1e9
	}
	return 1
}

// secs converts durations to float seconds.
func secs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// emits reports whether a metric belongs on the final JSON line.
func (r *run) emits(name string) bool {
	if r.trace {
		return contains(perLayer, name)
	}
	return contains(endToEnd, name)
}

// addArtifact records a compiled app's code for the run digest. The
// same spec compiles in every setup round, each on a fresh daemon; a
// second compile must reproduce the first byte for byte.
func (r *run) addArtifact(specHash, app, code string) {
	key := specHash + "/" + app
	r.mu.Lock()
	prev, seen := r.artifacts[key]
	r.artifacts[key] = code
	r.mu.Unlock()
	if seen && prev != code {
		r.fail("spec %s app %s: a recompile produced different code", specHash, app)
	}
}

func (r *run) digest() string {
	keys := make([]string, 0, len(r.artifacts))
	for k := range r.artifacts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		fmt.Fprintf(h, "%s\x00%d\x00%s", k, len(r.artifacts[k]), r.artifacts[k])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// print writes the human-readable report.
func (r *run) print(w io.Writer) {
	mode := "untraced"
	if r.trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s  seed %d  %gs  %s\n", r.workload, r.seed, r.seconds, mode)
	for _, name := range r.order {
		m := r.metrics[name]
		mark := " "
		if r.emits(name) {
			mark = "*"
		}
		line := fmt.Sprintf("%s %-30s %14.4f %-9s", mark, name, m.Value, m.Unit)
		if m.n > 0 {
			line += fmt.Sprintf(" n=%d", m.n)
		}
		if m.note != "" {
			line += "  (" + m.note + ")"
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
	fmt.Fprintf(w, "  artifacts %d  digest %s\n", len(r.artifacts), r.digest())
	fmt.Fprintf(w, "  attempted %d  failed %d\n", r.attempted, r.failed)
	for _, f := range r.failures {
		fmt.Fprintf(w, "  FAIL %s\n", f)
	}
}

// stateDir names a fresh daemon state directory inside the run dir.
func (r *run) stateDir(tag string) string { return filepath.Join(r.dir, tag) }

// tracer keeps spans in memory and writes them when the run ends.
type tracer struct {
	on    bool
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

// add records a span and returns its index (-1 when tracing is off).
func (t *tracer) add(name, id string, start, end time.Time, parent int) int {
	if !t.on {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		Name: name, ID: id, Parent: parent,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(),
	})
	return len(t.spans) - 1
}

// durations returns the durations, in seconds, of every span named name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/1e9)
		}
	}
	return out
}

// write dumps the spans as JSON lines, each with its self time.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	self := selfTimes(t.spans)
	for i, s := range t.spans {
		if err := enc.Encode(struct {
			span
			Self int64 `json:"self_ns"`
		}{s, self[i]}); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// setSpanMedian records the median duration of the spans named span.
func (r *run) setSpanMedian(name, spanName, unit string) {
	xs := r.tr.durations(spanName)
	if len(xs) == 0 {
		r.fail("traced run recorded no %s span", spanName)
		r.set(name, 0, unit, 0, "no spans")
		return
	}
	r.setQ(name, percentile(xs, 50), unit)
}
