// Package dtree implements CART decision-tree classification — the third
// classical algorithm family IIsy maps to match-action pipelines (one MAT
// level per tree depth). The Homunculus optimization core tunes MaxDepth
// and MinLeaf against the available table budget.
package dtree

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/dataset"
)

// Config holds the tree hyperparameters.
type Config struct {
	MaxDepth int
	MinLeaf  int // minimum samples per leaf
	Classes  int
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.MaxDepth <= 0 {
		return fmt.Errorf("dtree: MaxDepth must be positive, got %d", c.MaxDepth)
	}
	if c.MinLeaf <= 0 {
		return fmt.Errorf("dtree: MinLeaf must be positive, got %d", c.MinLeaf)
	}
	if c.Classes < 2 {
		return fmt.Errorf("dtree: Classes must be >= 2, got %d", c.Classes)
	}
	return nil
}

// Node is one tree node. Leaves have Feature == -1.
type Node struct {
	Feature     int // split feature, -1 for leaf
	Threshold   float64
	Left, Right *Node
	Class       int // majority class at this node
	Samples     int
}

// IsLeaf reports whether the node is terminal.
func (n *Node) IsLeaf() bool { return n.Feature < 0 }

// Model is a fitted CART tree.
type Model struct {
	Config Config
	Root   *Node
}

// Train fits a CART tree with Gini-impurity splits. It presorts d and
// discards the presort; a caller training many trees on one dataset
// presorts once and calls Presorted.Train instead.
func Train(c Config, d *dataset.Dataset) (*Model, error) {
	return Presort(d).Train(c)
}

// Presorted is a training set with every feature column sorted once
// (SLIQ-style presorting): a column-major copy of the features plus, per
// feature, the sample indices in ascending value order. Tree growth then
// never sorts again — each split stably partitions every feature's order
// into the children's contiguous ranges, so a tree level costs
// O(features · n) instead of O(features · n log n) per node.
//
// A Presorted is read-only after Presort returns; any number of
// goroutines may Train from it concurrently.
type Presorted struct {
	n, features int
	cols        []float64 // cols[f*n+i] = feature f of sample i
	order       []int32   // order[f*n:(f+1)*n] = samples ascending by feature f
	y           []int
}

// Presort sorts every feature column of d once. The result aliases d.Y,
// so d must not change while the Presorted is in use.
func Presort(d *dataset.Dataset) *Presorted {
	n, nf := d.Len(), d.Features()
	p := &Presorted{
		n: n, features: nf,
		cols:  make([]float64, nf*n),
		order: make([]int32, nf*n),
		y:     d.Y,
	}
	for i := 0; i < n; i++ {
		for f, v := range d.X.Row(i) {
			p.cols[f*n+i] = v
		}
	}
	type entry struct {
		v float64
		i int32
	}
	sorted := make([]entry, n)
	for f := 0; f < nf; f++ {
		for i, v := range p.cols[f*n : (f+1)*n] {
			sorted[i] = entry{v, int32(i)}
		}
		slices.SortFunc(sorted, func(a, b entry) int {
			switch {
			case a.v < b.v:
				return -1
			case a.v > b.v:
				return 1
			}
			return 0
		})
		for k, e := range sorted {
			p.order[f*n+k] = e.i
		}
	}
	return p
}

// Train fits a CART tree on the presorted set; the tree is identical to
// the one Train(c, d) fits on the dataset p was built from.
func (p *Presorted) Train(c Config) (*Model, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if p.n == 0 {
		return nil, fmt.Errorf("dtree: empty training set")
	}
	g := &grower{
		c: c, n: p.n, features: p.features, cols: p.cols, y: p.y,
		order:    slices.Clone(p.order),
		spill:    make([]int32, p.n),
		goesLeft: make([]bool, p.n),
		left:     make([]int, c.Classes),
		right:    make([]int, c.Classes),
	}
	counts := make([]int, c.Classes)
	for _, y := range p.y {
		if y < c.Classes {
			counts[y]++
		}
	}
	return &Model{Config: c, Root: g.build(0, p.n, counts, 0)}, nil
}

// grower is one Train call's state: the shared presorted columns and
// labels, its own copy of the orders (partitioned in place as the tree
// grows) and scratch buffers. Every node owns the range [lo, hi) of each
// feature's order, holding its samples ascending by that feature.
type grower struct {
	c           Config
	n, features int
	cols        []float64
	y           []int
	order       []int32
	spill       []int32 // right-hand samples during a partition
	goesLeft    []bool  // by sample index, for the split being applied
	left, right []int   // class counts either side of a candidate split
}

// build grows the subtree over the samples in [lo, hi); counts holds their
// class counts.
func (g *grower) build(lo, hi int, counts []int, depth int) *Node {
	c := g.c
	node := &Node{Feature: -1, Samples: hi - lo, Class: argMaxInt(counts)}
	if depth >= c.MaxDepth || hi-lo < 2*c.MinLeaf || pure(counts) {
		return node
	}
	feat, thresh, gain := g.bestSplit(lo, hi, counts)
	if gain <= 1e-12 {
		return node
	}
	leftCounts := make([]int, c.Classes)
	nl := 0
	col := g.cols[feat*g.n : (feat+1)*g.n]
	for _, i := range g.order[feat*g.n+lo : feat*g.n+hi] {
		left := col[i] <= thresh
		g.goesLeft[i] = left
		if left {
			nl++
			if y := g.y[i]; y < c.Classes {
				leftCounts[y]++
			}
		}
	}
	if nl < c.MinLeaf || hi-lo-nl < c.MinLeaf {
		return node
	}
	g.partition(lo, hi)
	rightCounts := make([]int, c.Classes)
	for k := range rightCounts {
		rightCounts[k] = counts[k] - leftCounts[k]
	}
	node.Feature = feat
	node.Threshold = thresh
	node.Left = g.build(lo, lo+nl, leftCounts, depth+1)
	node.Right = g.build(lo+nl, hi, rightCounts, depth+1)
	return node
}

// partition stably splits every feature's [lo, hi) range by goesLeft:
// left samples first, right samples after, each still ascending.
func (g *grower) partition(lo, hi int) {
	for f := 0; f < g.features; f++ {
		seg := g.order[f*g.n+lo : f*g.n+hi]
		nl, nr := 0, 0
		for _, i := range seg {
			if g.goesLeft[i] {
				seg[nl] = i
				nl++
			} else {
				g.spill[nr] = i
				nr++
			}
		}
		copy(seg[nl:], g.spill[:nr])
	}
}

func pure(counts []int) bool {
	nonzero := 0
	for _, v := range counts {
		if v > 0 {
			nonzero++
		}
	}
	return nonzero <= 1
}

func argMaxInt(x []int) int {
	best, bi := math.MinInt64, 0
	for i, v := range x {
		if v > best {
			best, bi = v, i
		}
	}
	return bi
}

func gini(counts []int, total int) float64 {
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

// bestSplit sweeps every feature's presorted range once, maintaining
// class counts on each side incrementally (O(features · n) per node).
// Candidate thresholds lie only between distinct adjacent values, where
// the side counts do not depend on how ties are ordered.
func (g *grower) bestSplit(lo, hi int, parentCounts []int) (feat int, thresh, gain float64) {
	n := hi - lo
	parentGini := gini(parentCounts, n)
	bestGain := 0.0
	bestFeat, bestThresh := -1, 0.0

	for f := 0; f < g.features; f++ {
		col := g.cols[f*g.n : (f+1)*g.n]
		order := g.order[f*g.n+lo : f*g.n+hi]
		clear(g.left)
		copy(g.right, parentCounts)
		for pos := 0; pos < n-1; pos++ {
			y := g.y[order[pos]]
			if y < g.c.Classes {
				g.left[y]++
				g.right[y]--
			}
			v, next := col[order[pos]], col[order[pos+1]]
			if v == next {
				continue // can't split between equal values
			}
			nl, nr := pos+1, n-pos-1
			cand := parentGini -
				(float64(nl)/float64(n))*gini(g.left, nl) -
				(float64(nr)/float64(n))*gini(g.right, nr)
			if cand > bestGain {
				bestGain = cand
				bestFeat = f
				bestThresh = (v + next) / 2
			}
		}
	}
	return bestFeat, bestThresh, bestGain
}

// PredictVec classifies one feature vector.
func (m *Model) PredictVec(x []float64) int {
	n := m.Root
	for !n.IsLeaf() {
		if x[n.Feature] <= n.Threshold {
			n = n.Left
		} else {
			n = n.Right
		}
	}
	return n.Class
}

// Predict classifies every sample of d.
func (m *Model) Predict(d *dataset.Dataset) []int {
	out := make([]int, d.Len())
	for i := range out {
		out[i] = m.PredictVec(d.X.Row(i))
	}
	return out
}

// Depth returns the height of the fitted tree (a single leaf is depth 0) —
// this is what the MAT backend charges tables for.
func (m *Model) Depth() int { return depth(m.Root) }

func depth(n *Node) int {
	if n == nil || n.IsLeaf() {
		return 0
	}
	l, r := depth(n.Left), depth(n.Right)
	if l > r {
		return l + 1
	}
	return r + 1
}

// Leaves returns the number of leaf nodes.
func (m *Model) Leaves() int { return leaves(m.Root) }

func leaves(n *Node) int {
	if n == nil {
		return 0
	}
	if n.IsLeaf() {
		return 1
	}
	return leaves(n.Left) + leaves(n.Right)
}
