package main

// Seeded input generation. Everything the daemon sees — submitted specs
// and classify vectors — is derived from the workload seed here, so the
// same seed always produces byte-identical requests.

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"repro/alchemy"
	"repro/internal/httpapi"
)

// mix derives an independent 63-bit stream seed from the workload seed
// and a purpose tag (splitmix64 finalizer). Never returns 0, which the
// search config reads as "use the default seed".
func mix(seed int64, tag ...int64) int64 {
	x := uint64(seed)
	for _, t := range tag {
		x += 0x9e3779b97f4a7c15 + uint64(t)
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
	}
	if v := int64(x >> 1); v != 0 {
		return v
	}
	return 1
}

// spec is one named job submission.
type spec struct {
	Name string
	Req  httpapi.SubmitRequest
}

// body renders the POST /v1/jobs body.
func (s spec) body() []byte {
	raw, err := json.Marshal(s.Req)
	if err != nil {
		panic(fmt.Sprintf("marshal spec %s: %v", s.Name, err)) // plain structs always marshal
	}
	return raw
}

func leaf(name, dataset string, algorithms ...string) *alchemy.ScheduleJSON {
	return &alchemy.ScheduleJSON{Model: &alchemy.ModelJSON{
		Name: name, Metric: "f1", Algorithms: algorithms, Dataset: dataset,
	}}
}

var taurus = alchemy.ConstraintsJSON{ThroughputGPkts: 1, LatencyNS: 500, Rows: 16, Cols: 16}

// dnnSpec is the classify workloads' endpoint model, and the first spec
// of the compile mix: a DNN on Taurus over the nslkdd catalog dataset,
// with the reduced search budget of cmd/homunculus/testdata/ad.json.
func dnnSpec(searchSeed int64, validate bool) spec {
	return spec{Name: "dnn-taurus", Req: httpapi.SubmitRequest{
		Platform: &alchemy.PlatformJSON{Kind: "taurus", Constraints: taurus, Schedule: leaf("ad", "nslkdd", "dnn")},
		Search:   &httpapi.SearchJSON{Init: 4, Iterations: 4, Epochs: 6, MaxLayers: 3, MaxNeurons: 16, Seed: searchSeed},
		Validate: validate,
	}}
}

// compileMix is the compile workloads' spec set for one sweep: DNN on
// Taurus over nslkdd, dtree on Tofino over iottc, one multi-family spec,
// and a two-model chained Taurus schedule (so compose runs). Every spec
// validates. Search seeds come from (seed, sweep), so distinct sweeps
// never share a cache entry.
func compileMix(seed int64, sweep int) []spec {
	s := func(i int64) int64 { return mix(seed, 1000+int64(sweep), i) }
	dnn := dnnSpec(s(0), true)
	return []spec{
		dnn,
		{Name: "dtree-tofino", Req: httpapi.SubmitRequest{
			Platform: &alchemy.PlatformJSON{Kind: "tofino", Constraints: alchemy.ConstraintsJSON{Tables: 12},
				Schedule: leaf("tc", "iottc", "dtree")},
			Search:   &httpapi.SearchJSON{Init: 3, Iterations: 3, Seed: s(1)},
			Validate: true,
		}},
		{Name: "multi-family", Req: httpapi.SubmitRequest{
			Platform: &alchemy.PlatformJSON{Kind: "taurus", Constraints: taurus,
				Schedule: leaf("ad4", "nslkdd", "dnn", "svm", "kmeans", "dtree")},
			Search:   &httpapi.SearchJSON{Init: 2, Iterations: 2, Epochs: 4, MaxLayers: 2, MaxNeurons: 12, Seed: s(2)},
			Validate: true,
		}},
		{Name: "chained", Req: httpapi.SubmitRequest{
			Platform: &alchemy.PlatformJSON{Kind: "taurus", Constraints: taurus,
				Schedule: &alchemy.ScheduleJSON{Op: "seq", Children: []*alchemy.ScheduleJSON{
					leaf("ad", "nslkdd", "dnn"), leaf("tc", "iottc", "dnn"),
				}}},
			Search:   &httpapi.SearchJSON{Init: 3, Iterations: 3, Epochs: 4, MaxLayers: 2, MaxNeurons: 12, Seed: s(3)},
			Validate: true,
		}},
	}
}

// classifySpecs returns the classify endpoint's stable spec and, for
// the canary, the spec compiled from the next seed.
func classifySpecs(seed int64) (stable, canary spec) {
	return dnnSpec(mix(seed, 1), false), dnnSpec(mix(seed+1, 1), false)
}

// vectorPool draws n feature vectors from the nslkdd catalog dataset's
// test split, each row picked and jittered by the seeded stream, so the
// daemon classifies inputs it never trained on exactly.
func vectorPool(seed int64, n int) ([][]float64, error) {
	loader, err := alchemy.LoaderFor("nslkdd")
	if err != nil {
		return nil, err
	}
	data, err := loader.Load()
	if err != nil {
		return nil, fmt.Errorf("load nslkdd: %w", err)
	}
	rng := rand.New(rand.NewSource(mix(seed, 2)))
	out := make([][]float64, n)
	for i := range out {
		row := data.TestX[rng.Intn(len(data.TestX))]
		x := make([]float64, len(row))
		for j, v := range row {
			x[j] = v * (1 + 0.05*rng.NormFloat64())
		}
		out[i] = x
	}
	return out, nil
}
