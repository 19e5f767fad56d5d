package dtree

// The presorted trainer must grow exactly the tree the original per-node
// sorting CART grew. That trainer is kept here, verbatim apart from its
// names, as a test oracle — helpers included, so a later change to the
// package's own gini or argmax cannot move both sides at once. Every test
// below compares the two node for node: feature, threshold bits, majority
// class and sample count.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/packet"
	"repro/internal/synth/botnet"
	"repro/internal/synth/iottc"
	"repro/internal/synth/nslkdd"
)

// oracleTrain is the original CART trainer: it re-sorts the node's
// samples by every feature at every node.
func oracleTrain(c Config, d *dataset.Dataset) (*Model, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if d.Len() == 0 {
		return nil, fmt.Errorf("dtree: empty training set")
	}
	idx := make([]int, d.Len())
	for i := range idx {
		idx[i] = i
	}
	root := oracleBuild(c, d, idx, 0)
	return &Model{Config: c, Root: root}, nil
}

func oracleBuild(c Config, d *dataset.Dataset, idx []int, depth int) *Node {
	node := &Node{Feature: -1, Samples: len(idx)}
	counts := make([]int, c.Classes)
	for _, i := range idx {
		if d.Y[i] < c.Classes {
			counts[d.Y[i]]++
		}
	}
	node.Class = oracleArgMax(counts)
	if depth >= c.MaxDepth || len(idx) < 2*c.MinLeaf || oraclePure(counts) {
		return node
	}
	feat, thresh, gain := oracleBestSplit(c, d, idx, counts)
	if gain <= 1e-12 {
		return node
	}
	var left, right []int
	for _, i := range idx {
		if d.X.At(i, feat) <= thresh {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) < c.MinLeaf || len(right) < c.MinLeaf {
		return node
	}
	node.Feature = feat
	node.Threshold = thresh
	node.Left = oracleBuild(c, d, left, depth+1)
	node.Right = oracleBuild(c, d, right, depth+1)
	return node
}

func oracleBestSplit(c Config, d *dataset.Dataset, idx []int, parentCounts []int) (feat int, thresh, gain float64) {
	n := len(idx)
	parentGini := oracleGini(parentCounts, n)
	bestGain := 0.0
	bestFeat, bestThresh := -1, 0.0

	order := make([]int, n)
	for f := 0; f < d.Features(); f++ {
		copy(order, idx)
		sort.Slice(order, func(a, b int) bool { return d.X.At(order[a], f) < d.X.At(order[b], f) })
		leftCounts := make([]int, c.Classes)
		rightCounts := append([]int{}, parentCounts...)
		for pos := 0; pos < n-1; pos++ {
			y := d.Y[order[pos]]
			if y < c.Classes {
				leftCounts[y]++
				rightCounts[y]--
			}
			v, next := d.X.At(order[pos], f), d.X.At(order[pos+1], f)
			if v == next {
				continue
			}
			nl, nr := pos+1, n-pos-1
			g := parentGini -
				(float64(nl)/float64(n))*oracleGini(leftCounts, nl) -
				(float64(nr)/float64(n))*oracleGini(rightCounts, nr)
			if g > bestGain {
				bestGain = g
				bestFeat = f
				bestThresh = (v + next) / 2
			}
		}
	}
	return bestFeat, bestThresh, bestGain
}

func oraclePure(counts []int) bool {
	nonzero := 0
	for _, v := range counts {
		if v > 0 {
			nonzero++
		}
	}
	return nonzero <= 1
}

func oracleArgMax(x []int) int {
	best, bi := math.MinInt64, 0
	for i, v := range x {
		if v > best {
			best, bi = v, i
		}
	}
	return bi
}

func oracleGini(counts []int, total int) float64 {
	if total == 0 {
		return 0
	}
	g := 1.0
	for _, v := range counts {
		p := float64(v) / float64(total)
		g -= p * p
	}
	return g
}

// sameTree reports the first node where got and want differ, or "".
func sameTree(got, want *Node, path string) string {
	switch {
	case got == nil && want == nil:
		return ""
	case got == nil || want == nil:
		return fmt.Sprintf("%s: node present on one side only (got %v, want %v)", path, got != nil, want != nil)
	case got.Feature != want.Feature,
		math.Float64bits(got.Threshold) != math.Float64bits(want.Threshold),
		got.Class != want.Class,
		got.Samples != want.Samples:
		return fmt.Sprintf("%s: got {f%d <= %v class %d n %d}, want {f%d <= %v class %d n %d}", path,
			got.Feature, got.Threshold, got.Class, got.Samples,
			want.Feature, want.Threshold, want.Class, want.Samples)
	}
	if diff := sameTree(got.Left, want.Left, path+"L"); diff != "" {
		return diff
	}
	return sameTree(got.Right, want.Right, path+"R")
}

// catalogTrainSplits returns the train splits of the three catalog
// datasets at their generator defaults, built as the daemon's loaders
// build them.
func catalogTrainSplits(t testing.TB) map[string]*dataset.Dataset {
	t.Helper()
	nsl, _, err := nslkdd.TrainTest(nslkdd.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	iot, _, err := iottc.TrainTest(iottc.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	flows, err := botnet.Generate(botnet.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	bot, err := botnet.FlowmarkerDataset(flows[:len(flows)*3/4], packet.PaperBD)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*dataset.Dataset{"nslkdd": nsl, "iottc": iot, "botnet": bot}
}

// tieHeavy draws n samples of nf small-integer features (levels distinct
// values each, so most adjacent sorted values tie) with labels that mostly
// follow a feature interaction. About half the zeros are stored as -0, so
// signed-zero ties are covered too.
func tieHeavy(n, nf, levels, classes int, seed int64) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := dataset.New(n, nf)
	for i := 0; i < n; i++ {
		sum := 0
		for f := 0; f < nf; f++ {
			v := rng.Intn(levels)
			sum += v * (f + 1)
			x := float64(v)
			if v == 0 && rng.Intn(2) == 0 {
				x = math.Copysign(0, -1)
			}
			d.X.Set(i, f, x)
		}
		d.Y[i] = sum % classes
		if rng.Float64() < 0.1 {
			d.Y[i] = rng.Intn(classes)
		}
	}
	return d
}

// checkGrid trains every config of the BO grid (depth 1–8 × minleaf 1–16)
// on p and on the oracle, and fails on the first differing tree.
func checkGrid(t *testing.T, name string, d *dataset.Dataset, p *Presorted, classes int) int {
	t.Helper()
	trees := 0
	for depth := 1; depth <= 8; depth++ {
		for minLeaf := 1; minLeaf <= 16; minLeaf++ {
			c := Config{MaxDepth: depth, MinLeaf: minLeaf, Classes: classes}
			want, err := oracleTrain(c, d)
			if err != nil {
				t.Fatal(err)
			}
			got, err := p.Train(c)
			if err != nil {
				t.Fatal(err)
			}
			if diff := sameTree(got.Root, want.Root, "root"); diff != "" {
				t.Fatalf("%s depth %d minleaf %d: %s", name, depth, minLeaf, diff)
			}
			trees++
		}
	}
	return trees
}

func TestPresortedMatchesOracleOnCatalog(t *testing.T) {
	for name, d := range catalogTrainSplits(t) {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			if err := d.Validate(); err != nil {
				t.Fatal(err)
			}
			n := checkGrid(t, name, d, Presort(d), max(d.Classes(), 2))
			t.Logf("%d×%d: %d trees identical", d.Len(), d.Features(), n)
		})
	}
}

func TestPresortedMatchesOracleOnTies(t *testing.T) {
	cases := []struct{ n, nf, levels, classes int }{
		{40, 1, 2, 2}, {200, 2, 3, 2}, {300, 3, 4, 3}, {500, 5, 2, 2}, {1000, 4, 6, 4},
	}
	for i, tc := range cases {
		for seed := int64(1); seed <= 3; seed++ {
			d := tieHeavy(tc.n, tc.nf, tc.levels, tc.classes, seed)
			name := fmt.Sprintf("ties case %d seed %d", i, seed)
			checkGrid(t, name, d, Presort(d), tc.classes)
		}
	}
	// Labels at or past Classes are left out of the class counts but
	// still count as samples.
	d := tieHeavy(300, 3, 4, 4, 9)
	checkGrid(t, "ties with labels past Classes", d, Presort(d), 2)
}

// TestPresortedConcurrentTrain shares one presort across concurrent Train
// calls, as the BO trials of one search do; run it under -race.
func TestPresortedConcurrentTrain(t *testing.T) {
	d := catalogTrainSplits(t)["nslkdd"]
	p := Presort(d)
	configs := []Config{
		{MaxDepth: 8, MinLeaf: 1, Classes: 2}, {MaxDepth: 3, MinLeaf: 4, Classes: 2},
		{MaxDepth: 6, MinLeaf: 16, Classes: 2}, {MaxDepth: 1, MinLeaf: 1, Classes: 2},
	}
	want := make([]*Model, len(configs))
	for i, c := range configs {
		m, err := oracleTrain(c, d)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = m
	}
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range configs {
				i := (w + k) % len(configs)
				got, err := p.Train(configs[i])
				if err != nil {
					t.Error(err)
					return
				}
				if diff := sameTree(got.Root, want[i].Root, "root"); diff != "" {
					t.Errorf("worker %d config %+v: %s", w, configs[i], diff)
				}
			}
		}(w)
	}
	wg.Wait()
}
