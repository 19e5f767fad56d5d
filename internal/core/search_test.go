package core

import (
	"context"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/backend"
	"repro/internal/dataset"
	"repro/internal/dtree"
	"repro/internal/ir"
)

// smallApp builds a quick binary task: two Gaussian blobs with a little
// overlap, named features.
func smallApp(t *testing.T, seed int64) App {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	d := dataset.New(600, 3)
	d.FeatureNames = []string{"fa", "fb", "fc"}
	for i := 0; i < 600; i++ {
		c := i % 2
		d.X.Set(i, 0, float64(c)*1.5+rng.NormFloat64()*0.6)
		d.X.Set(i, 1, float64(c)*-1.2+rng.NormFloat64()*0.6)
		d.X.Set(i, 2, rng.NormFloat64())
		d.Y[i] = c
	}
	train, test := d.StratifiedSplit(rng, 0.75)
	return App{Name: "small", Train: train, Test: test, Normalize: true}
}

// fastSearchConfig keeps test runtime low.
func fastSearchConfig() SearchConfig {
	cfg := DefaultSearchConfig()
	cfg.BO.InitSamples = 3
	cfg.BO.Iterations = 4
	cfg.BO.Candidates = 100
	cfg.MaxHiddenLayers = 2
	cfg.MaxNeurons = 12
	cfg.TrainEpochs = 6
	return cfg
}

func TestAppValidate(t *testing.T) {
	app := smallApp(t, 1)
	if err := app.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := app
	bad.Name = ""
	if bad.Validate() == nil {
		t.Fatal("empty name must fail")
	}
	bad2 := app
	bad2.Test = nil
	if bad2.Validate() == nil {
		t.Fatal("missing test set must fail")
	}
	bad3 := app
	bad3.Test = dataset.New(5, 9)
	if bad3.Validate() == nil {
		t.Fatal("feature mismatch must fail")
	}
}

func TestSearchConfigValidate(t *testing.T) {
	cfg := DefaultSearchConfig()
	cfg.Metric = "nope"
	if cfg.Validate() == nil {
		t.Fatal("unknown metric must fail")
	}
	cfg = DefaultSearchConfig()
	cfg.MaxHiddenLayers = 0
	if cfg.Validate() == nil {
		t.Fatal("zero layers must fail")
	}
	cfg = DefaultSearchConfig()
	cfg.TrainEpochs = 0
	if cfg.Validate() == nil {
		t.Fatal("zero epochs must fail")
	}
	cfg = DefaultSearchConfig()
	cfg.MaxClusters = 0
	if cfg.Validate() == nil {
		t.Fatal("zero clusters must fail")
	}
}

func TestSearchDNNOnTaurus(t *testing.T) {
	app := smallApp(t, 2)
	cfg := fastSearchConfig()
	cfg.Algorithms = []ir.Kind{ir.DNN}
	res, err := Search(context.Background(), app, backend.NewTaurusTarget(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best == nil {
		t.Fatal("search must find a feasible DNN")
	}
	if res.Best.Metric < 0.8 {
		t.Fatalf("best F1 %v too low for separable blobs", res.Best.Metric)
	}
	if res.Best.Model.Kind != ir.DNN {
		t.Fatal("wrong algorithm")
	}
	if !res.Best.Verdict.Feasible {
		t.Fatal("best must be feasible")
	}
	if res.Best.Verdict.Metrics["cus"] <= 0 {
		t.Fatal("verdict must carry CU count")
	}
	code, err := backend.NewTaurusTarget().Generate(res.Best.Model)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(code, "@spatial") {
		t.Fatal("Taurus code must be Spatial")
	}
	// history recorded for regret plots
	if len(res.Best.BO.History) != cfg.BO.InitSamples+cfg.BO.Iterations {
		t.Fatalf("BO history %d", len(res.Best.BO.History))
	}
}

func TestSearchSelectsAcrossFamilies(t *testing.T) {
	app := smallApp(t, 3)
	cfg := fastSearchConfig()
	cfg.Algorithms = []ir.Kind{ir.SVM, ir.DTree}
	res, err := Search(context.Background(), app, backend.NewTaurusTarget(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best == nil {
		t.Fatal("must find a model")
	}
	if len(res.Candidates) != 2 {
		t.Fatalf("candidates = %d", len(res.Candidates))
	}
	// best must be max metric among candidates with models
	for _, c := range res.Candidates {
		if c.Model != nil && c.Metric > res.Best.Metric {
			t.Fatal("best selection wrong")
		}
	}
}

func TestSearchPrunesDNNOnMAT(t *testing.T) {
	app := smallApp(t, 4)
	cfg := fastSearchConfig()
	cfg.Algorithms = []ir.Kind{ir.DNN, ir.DTree}
	res, err := Search(context.Background(), app, backend.NewMATTarget(8), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var dnnCand *CandidateResult
	for i := range res.Candidates {
		if res.Candidates[i].Algorithm == ir.DNN {
			dnnCand = &res.Candidates[i]
		}
	}
	if dnnCand == nil || dnnCand.Skipped == "" {
		t.Fatal("DNN must be pruned on MAT target (§3.2.1)")
	}
	if res.Best == nil || res.Best.Algorithm != ir.DTree {
		t.Fatal("DTree must win on MAT target")
	}
	code, err := backend.NewMATTarget(8).Generate(res.Best.Model)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(code, "v1model") {
		t.Fatal("MAT code must be P4")
	}
}

func TestSearchKMeansVMeasure(t *testing.T) {
	app := smallApp(t, 5)
	cfg := fastSearchConfig()
	cfg.Metric = MetricVMeasure
	cfg.Algorithms = []ir.Kind{ir.KMeans, ir.SVM}
	res, err := Search(context.Background(), app, backend.NewMATTarget(6), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// SVM must be pruned for a clustering objective.
	for _, c := range res.Candidates {
		if c.Algorithm == ir.SVM && c.Skipped == "" {
			t.Fatal("SVM must be pruned for vmeasure")
		}
	}
	if res.Best == nil || res.Best.Algorithm != ir.KMeans {
		t.Fatal("KMeans must win")
	}
	if res.Best.Metric <= 0 {
		t.Fatal("vmeasure must be positive")
	}
	// Table budget respected.
	if res.Best.Verdict.Metrics["tables"] > 6 {
		t.Fatal("table budget violated")
	}
}

func TestSearchRespectsTightResourceBudget(t *testing.T) {
	app := smallApp(t, 6)
	cfg := fastSearchConfig()
	cfg.Metric = MetricVMeasure
	cfg.Algorithms = []ir.Kind{ir.KMeans}
	cfg.MaxClusters = 8
	loose, err := Search(context.Background(), app, backend.NewMATTarget(8), cfg)
	if err != nil {
		t.Fatal(err)
	}
	tight, err := Search(context.Background(), app, backend.NewMATTarget(2), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tight.Best == nil || loose.Best == nil {
		t.Fatal("both budgets must produce models")
	}
	if tight.Best.Verdict.Metrics["tables"] > 2 {
		t.Fatalf("tight budget violated: %v tables", tight.Best.Verdict.Metrics["tables"])
	}
	if loose.Best.Metric < tight.Best.Metric-1e-9 {
		t.Fatalf("more tables must not hurt quality: %v vs %v", loose.Best.Metric, tight.Best.Metric)
	}
}

func TestSearchDeterministic(t *testing.T) {
	cfg := fastSearchConfig()
	cfg.Algorithms = []ir.Kind{ir.DTree}
	a1, err := Search(context.Background(), smallApp(t, 7), backend.NewTaurusTarget(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := Search(context.Background(), smallApp(t, 7), backend.NewTaurusTarget(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a1.Best.Metric != a2.Best.Metric {
		t.Fatal("same seed must reproduce the search")
	}
}

func TestSearchErrors(t *testing.T) {
	app := smallApp(t, 8)
	if _, err := Search(context.Background(), app, nil, fastSearchConfig()); err == nil {
		t.Fatal("nil target must error")
	}
	bad := app
	bad.Name = ""
	if _, err := Search(context.Background(), bad, backend.NewTaurusTarget(), fastSearchConfig()); err == nil {
		t.Fatal("invalid app must error")
	}
	cfg := fastSearchConfig()
	cfg.Metric = "zzz"
	if _, err := Search(context.Background(), app, backend.NewTaurusTarget(), cfg); err == nil {
		t.Fatal("invalid config must error")
	}
}

func TestRankFeatures(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	d := dataset.New(400, 3)
	for i := 0; i < 400; i++ {
		c := i % 2
		d.X.Set(i, 0, rng.NormFloat64())              // noise
		d.X.Set(i, 1, float64(c)*3+rng.NormFloat64()) // strong signal
		d.X.Set(i, 2, float64(c)+rng.NormFloat64())   // weak signal
		d.Y[i] = c
	}
	order := RankFeatures(d)
	if order[0] != 1 {
		t.Fatalf("strongest feature should rank first: %v", order)
	}
	if order[2] != 0 {
		t.Fatalf("noise should rank last: %v", order)
	}
}

func TestScoreModelMetrics(t *testing.T) {
	app := smallApp(t, 10)
	cfg := fastSearchConfig()
	cfg.Algorithms = []ir.Kind{ir.DTree}
	cfg.Metric = MetricAccuracy
	res, err := Search(context.Background(), app, backend.NewTaurusTarget(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best == nil || res.Best.Metric < 0.8 {
		t.Fatal("accuracy objective must work")
	}
}

// TestDTreeBuilderSharesPresort drives the DTree family's builder from
// concurrent trials, as BO does, and across two training sets: every model
// must equal the one dtree.Train fits from scratch. Run it under -race.
func TestDTreeBuilderSharesPresort(t *testing.T) {
	app := smallApp(t, 11)
	_, build := familySpace(app, fastSearchConfig(), ir.DTree)
	other := smallApp(t, 12).Train
	encode := func(m *ir.Model) string {
		var b strings.Builder
		if err := m.WriteJSON(&b); err != nil {
			t.Error(err)
		}
		return b.String()
	}
	for _, train := range []*dataset.Dataset{app.Train, other, app.Train} {
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for depth := 1 + w; depth <= 8; depth += 4 {
					x := []float64{float64(depth), float64(1 + 3*w)}
					got, err := build(x, train, 0)
					if err != nil {
						t.Error(err)
						return
					}
					m, err := dtree.Train(dtree.Config{MaxDepth: depth, MinLeaf: 1 + 3*w, Classes: 2}, train)
					if err != nil {
						t.Error(err)
						return
					}
					if encode(got) != encode(ir.FromDTree(app.Name, m, train.Features(), fastSearchConfig().Format)) {
						t.Errorf("depth %d minleaf %d: shared-presort model differs from a fresh Train", depth, 1+3*w)
					}
				}
			}(w)
		}
		wg.Wait()
	}
}
