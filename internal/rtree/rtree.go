// Package rtree implements an R-tree spatial index over object MBRs: the
// "index structure on top of the actual data" that the GeoBrowsing
// prototype of §1 uses to answer browsing queries exactly, and the baseline
// whose unsatisfactory performance at high tile counts motivates the
// paper's histogram approach.
//
// The tree supports Guttman-style dynamic insertion with quadratic splits
// and Sort-Tile-Recursive (STR) bulk loading, plus the query operations a
// browsing backend needs: Level 2 relation counting with subtree pruning,
// range search, and point/rect lookups.
package rtree

import (
	"fmt"

	"spatialhist/internal/geom"
)

// Default node fan-out bounds. MinEntries = MaxEntries * 40% per Guttman's
// recommendation.
const (
	DefaultMaxEntries = 16
	DefaultMinEntries = 6
)

// Tree is an R-tree over geom.Rect values with int64 payloads (object ids).
// The zero value is not usable; call New or Bulk.
type Tree struct {
	root       *node
	size       int
	maxEntries int
	minEntries int
	height     int
	// path is the descent stack of the in-flight Insert, reused across
	// inserts to avoid allocation. The tree is not safe for concurrent
	// mutation.
	path []*node
}

type node struct {
	leaf     bool
	mbr      geom.Rect
	children []*node     // internal nodes
	rects    []geom.Rect // leaves
	ids      []int64     // leaves, parallel to rects
}

// New returns an empty R-tree with the given fan-out bounds. maxEntries
// must be at least 4 and minEntries in [2, maxEntries/2].
func New(minEntries, maxEntries int) (*Tree, error) {
	if maxEntries < 4 {
		return nil, fmt.Errorf("rtree: maxEntries %d too small (min 4)", maxEntries)
	}
	if minEntries < 2 || minEntries > maxEntries/2 {
		return nil, fmt.Errorf("rtree: minEntries %d out of range [2, %d]", minEntries, maxEntries/2)
	}
	return &Tree{
		root:       &node{leaf: true},
		maxEntries: maxEntries,
		minEntries: minEntries,
		height:     1,
	}, nil
}

// NewDefault returns an empty R-tree with the default fan-out.
func NewDefault() *Tree {
	t, err := New(DefaultMinEntries, DefaultMaxEntries)
	if err != nil {
		panic(err) // defaults are valid by construction
	}
	return t
}

// Len returns the number of indexed objects.
func (t *Tree) Len() int { return t.size }

// Height returns the tree height (1 for a single leaf).
func (t *Tree) Height() int { return t.height }

// Insert adds one object MBR with its id.
func (t *Tree) Insert(r geom.Rect, id int64) {
	if !r.Valid() {
		panic(fmt.Sprintf("rtree: inserting invalid rect %v", r))
	}
	leaf := t.chooseLeaf(t.root, r)
	leaf.rects = append(leaf.rects, r)
	leaf.ids = append(leaf.ids, id)
	if t.size == 0 {
		leaf.mbr = r
	} else {
		leaf.mbr = leaf.mbr.Union(r)
	}
	t.size++
	t.adjustAndSplit(r)
}

// chooseLeaf descends to the leaf whose MBR needs the least enlargement,
// recording the path so adjustAndSplit can propagate MBR growth and splits.
func (t *Tree) chooseLeaf(n *node, r geom.Rect) *node {
	t.path = t.path[:0]
	for {
		t.path = append(t.path, n)
		if n.leaf {
			return n
		}
		best := 0
		bestEnl := n.children[0].mbr.EnlargementNeeded(r)
		bestArea := n.children[0].mbr.Area()
		for i := 1; i < len(n.children); i++ {
			enl := n.children[i].mbr.EnlargementNeeded(r)
			area := n.children[i].mbr.Area()
			if enl < bestEnl || (enl == bestEnl && area < bestArea) {
				best, bestEnl, bestArea = i, enl, area
			}
		}
		n = n.children[best]
	}
}

// adjustAndSplit walks the recorded insertion path root-ward, enlarging
// MBRs and splitting overflowing nodes.
func (t *Tree) adjustAndSplit(r geom.Rect) {
	// Enlarge MBRs along the path; the leaf's own MBR is already updated,
	// and any ancestors predate this insert so their MBRs are valid.
	for _, n := range t.path[:len(t.path)-1] {
		n.mbr = n.mbr.Union(r)
	}
	// Split bottom-up.
	for i := len(t.path) - 1; i >= 0; i-- {
		n := t.path[i]
		if n.entryCount() <= t.maxEntries {
			break
		}
		left, right := t.splitNode(n)
		if i == 0 {
			// Root split: grow the tree.
			t.root = &node{
				leaf:     false,
				mbr:      left.mbr.Union(right.mbr),
				children: []*node{left, right},
			}
			t.height++
			return
		}
		parent := t.path[i-1]
		// Replace n with the two halves.
		for k, c := range parent.children {
			if c == n {
				parent.children[k] = left
				parent.children = append(parent.children, right)
				break
			}
		}
	}
}

func (n *node) entryCount() int {
	if n.leaf {
		return len(n.rects)
	}
	return len(n.children)
}

// splitNode performs Guttman's quadratic split, mutating n into the left
// half and returning both halves.
func (t *Tree) splitNode(n *node) (left, right *node) {
	if n.leaf {
		return t.splitLeaf(n)
	}
	return t.splitInternal(n)
}

// quadraticSeeds picks the pair of entries wasting the most area together.
func quadraticSeeds(mbrs []geom.Rect) (int, int) {
	s1, s2 := 0, 1
	worst := -1.0
	for i := 0; i < len(mbrs); i++ {
		for j := i + 1; j < len(mbrs); j++ {
			waste := mbrs[i].Union(mbrs[j]).Area() - mbrs[i].Area() - mbrs[j].Area()
			if waste > worst {
				worst, s1, s2 = waste, i, j
			}
		}
	}
	return s1, s2
}

// distribute assigns each remaining index to group 0 or 1 by least
// enlargement, forcing assignment when one group must take everything left
// to reach the minimum.
func (t *Tree) distribute(mbrs []geom.Rect, s1, s2 int) (g0, g1 []int) {
	g0 = []int{s1}
	g1 = []int{s2}
	mbr0, mbr1 := mbrs[s1], mbrs[s2]
	remaining := make([]int, 0, len(mbrs)-2)
	for i := range mbrs {
		if i != s1 && i != s2 {
			remaining = append(remaining, i)
		}
	}
	for k, idx := range remaining {
		left := len(remaining) - k
		if len(g0)+left == t.minEntries {
			g0 = append(g0, remaining[k:]...)
			return g0, g1
		}
		if len(g1)+left == t.minEntries {
			g1 = append(g1, remaining[k:]...)
			return g0, g1
		}
		d0 := mbr0.EnlargementNeeded(mbrs[idx])
		d1 := mbr1.EnlargementNeeded(mbrs[idx])
		if d0 < d1 || (d0 == d1 && mbr0.Area() <= mbr1.Area()) {
			g0 = append(g0, idx)
			mbr0 = mbr0.Union(mbrs[idx])
		} else {
			g1 = append(g1, idx)
			mbr1 = mbr1.Union(mbrs[idx])
		}
	}
	return g0, g1
}

func (t *Tree) splitLeaf(n *node) (*node, *node) {
	s1, s2 := quadraticSeeds(n.rects)
	g0, g1 := t.distribute(n.rects, s1, s2)
	mk := func(idx []int) *node {
		out := &node{leaf: true}
		for _, i := range idx {
			out.rects = append(out.rects, n.rects[i])
			out.ids = append(out.ids, n.ids[i])
		}
		out.mbr = geom.MBROf(out.rects)
		return out
	}
	return mk(g0), mk(g1)
}

func (t *Tree) splitInternal(n *node) (*node, *node) {
	mbrs := make([]geom.Rect, len(n.children))
	for i, c := range n.children {
		mbrs[i] = c.mbr
	}
	s1, s2 := quadraticSeeds(mbrs)
	g0, g1 := t.distribute(mbrs, s1, s2)
	mk := func(idx []int) *node {
		out := &node{leaf: false}
		ms := make([]geom.Rect, 0, len(idx))
		for _, i := range idx {
			out.children = append(out.children, n.children[i])
			ms = append(ms, n.children[i].mbr)
		}
		out.mbr = geom.MBROf(ms)
		return out
	}
	return mk(g0), mk(g1)
}
