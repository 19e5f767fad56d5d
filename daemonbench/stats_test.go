package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/httpapi"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // reversed: percentile must sort
	}
	return xs
}

func TestPercentileIsNearestRank(t *testing.T) {
	q := percentile(seq(100), 99)
	if q.Value != 99 || q.N != 100 || q.Beyond != 1 {
		t.Fatalf("p99 of 1..100 = %+v, want value 99, n 100, 1 beyond", q)
	}
	if q := percentile(seq(5), 50); q.Value != 3 || q.Beyond != 2 {
		t.Fatalf("p50 of 1..5 = %+v, want 3 with 2 beyond", q)
	}
	if q := percentile([]float64{7}, 99.9); q.Value != 7 || q.Beyond != 0 {
		t.Fatalf("p99.9 of one sample = %+v", q)
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n      int
		p      float64
		beyond int
	}{
		{10000, 99.9, 10},
		{1000, 99, 10},
		{999, 95, 49}, // p99 would leave only 9 beyond
		{200, 95, 10},
		{40, 75, 10},
		{25, 50, 12},
		{5, 50, 2}, // too few for any candidate: the median, flagged by Beyond
	} {
		q := tail(seq(c.n))
		if q.P != c.p || q.Beyond != c.beyond || q.N != c.n {
			t.Errorf("tail of %d samples = p%g with %d beyond (n %d), want p%g with %d beyond",
				c.n, q.P, q.Beyond, q.N, c.p, c.beyond)
		}
		if q.Value != float64(c.n-q.Beyond) {
			t.Errorf("tail of %d samples: value %g is not the rank-%d order statistic", c.n, q.Value, c.n-q.Beyond)
		}
	}
}

func TestWindowRatesSplitCompletionsEvenly(t *testing.T) {
	// 10 completions/s for 2 s, then 40/s for 1 s: three 1 s windows.
	var done []time.Duration
	for i := 1; i <= 20; i++ {
		done = append(done, time.Duration(i)*100*time.Millisecond)
	}
	for i := 1; i <= 40; i++ {
		done = append(done, 2*time.Second+time.Duration(i)*25*time.Millisecond)
	}
	rates := windowRates(done, 3*time.Second, time.Second)
	want := []float64{10, 40, 40}
	if len(rates) != len(want) {
		t.Fatalf("rates %v, want %v", rates, want)
	}
	for i := range want {
		if math.Abs(rates[i]-want[i]) > 1e-9 {
			t.Fatalf("rates %v, want %v", rates, want)
		}
	}
	if got := median(rates); got != 40 {
		t.Fatalf("median %v, want 40", got)
	}
	if got := windowRates(nil, time.Second, time.Second); len(got) != 0 {
		t.Fatalf("no completions gave %v", got)
	}
}

func TestOpenLoopLatencyCountsFromDueTime(t *testing.T) {
	start := time.Unix(1000, 0)
	const rate = 1000 // one request due every millisecond
	if got := dueTime(start, rate, 3).Sub(start); got != 3*time.Millisecond {
		t.Fatalf("due offset of request 3 = %v, want 3ms", got)
	}
	// The sender stalls 10ms on request 0; requests 1..4 were due during
	// the stall and go out back to back after it, 0.1ms apart.
	service := 500 * time.Microsecond
	var samples []openLoopSample
	free := start
	for k := 0; k < 5; k++ {
		due := dueTime(start, rate, k)
		sent := due
		if free.After(sent) {
			sent = free
		}
		done := sent.Add(service)
		if k == 0 {
			done = sent.Add(10 * time.Millisecond)
		}
		free = done.Add(100 * time.Microsecond)
		samples = append(samples, openLoopSample{Due: due, Sent: sent, Done: done})
	}
	if l := samples[0].Late(); l != 0 {
		t.Fatalf("on-time request reported %v late", l)
	}
	// Request 2 was due at 2ms and left at 10.1+0.5+0.1 = 10.7ms.
	if got, want := samples[2].Late(), 8700*time.Microsecond; got != want {
		t.Fatalf("request 2 late %v, want %v", got, want)
	}
	if got, want := samples[2].Latency(), samples[2].Late()+service; got != want {
		t.Fatalf("request 2 latency %v, want lateness plus service %v", got, want)
	}
	early := openLoopSample{Due: start, Sent: start.Add(-time.Microsecond)}
	if early.Late() != 0 {
		t.Fatalf("a request sent early must not report negative lateness")
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	spans := []span{
		{Name: "job", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 50, Parent: 0},  // overlaps a: union [10,50]
		{Name: "c", Start: 90, End: 120, Parent: 0}, // clipped to the parent: [90,100]
		{Name: "a.1", Start: 12, End: 18, Parent: 1},
		{Name: "other", Start: 0, End: 100, Parent: -1},
	}
	got := selfTimes(spans)
	want := []int64{100 - 40 - 10, 20 - 6, 30, 30, 6, 100}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	httpapi.RegisterBuiltinLoaders()
	for sweep := 0; sweep < 2; sweep++ {
		a, b := compileMix(7, sweep), compileMix(7, sweep)
		for i := range a {
			if !bytes.Equal(a[i].body(), b[i].body()) {
				t.Fatalf("sweep %d spec %s differs between two generations", sweep, a[i].Name)
			}
		}
	}
	if bytes.Equal(compileMix(7, 0)[0].body(), compileMix(7, 1)[0].body()) {
		t.Fatal("two sweeps share a spec, so the second would hit the cache")
	}
	if bytes.Equal(compileMix(7, 0)[0].body(), compileMix(8, 0)[0].body()) {
		t.Fatal("two workload seeds generate the same spec")
	}
	s1, c1 := classifySpecs(7)
	s2, c2 := classifySpecs(7)
	if !bytes.Equal(s1.body(), s2.body()) || !bytes.Equal(c1.body(), c2.body()) || bytes.Equal(s1.body(), c1.body()) {
		t.Fatal("classify specs are not a deterministic, distinct stable/canary pair")
	}
	v1, err := vectorPool(7, 64)
	if err != nil {
		t.Fatal(err)
	}
	v2, _ := vectorPool(7, 64)
	v3, _ := vectorPool(8, 64)
	if !reflect.DeepEqual(v1, v2) {
		t.Fatal("same seed drew different vectors")
	}
	if reflect.DeepEqual(v1, v3) {
		t.Fatal("different seeds drew the same vectors")
	}
}

// TestMetricListsMatchBenchmarkJSON keeps the metric names the final
// JSON line carries in step with ../BENCHMARK.json.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		out := make([]string, len(xs))
		for i, x := range xs {
			out[i] = x.Name
		}
		return out
	}
	for _, c := range []struct {
		what      string
		json, got []string
	}{
		{"workloads", names(doc.Workloads), workloads},
		{"end_to_end", names(doc.EndToEnd), endToEnd},
		{"per_layer", names(doc.PerLayer), perLayer},
	} {
		if !reflect.DeepEqual(c.json, c.got) {
			t.Errorf("%s: BENCHMARK.json has %v, the benchmark emits %v", c.what, c.json, c.got)
		}
	}
}
