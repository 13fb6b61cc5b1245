package core

import (
	"fmt"
	"slices"

	"github.com/wazi-index/wazi/internal/geom"
	"github.com/wazi-index/wazi/internal/storage"
)

// Test-only exports.

// CheckInvariants exposes the internal structural validator to tests, with
// the page invariants of checkPageInvariants on top.
func (z *ZIndex) CheckInvariants() error {
	if err := z.Verify(); err != nil {
		return err
	}
	return z.checkPageInvariants()
}

// checkPageInvariants verifies that every leaf's page is a sorted run plus a
// tail: the run is no longer than the page, lies inside the leaf's cell, and
// is in geom.CmpXY order. Verify has already matched each page's
// length to its leaf's count.
func (z *ZIndex) checkPageInvariants() error {
	for l := z.head; l != nil; l = l.next {
		if l.sorted < 0 || l.sorted > l.n {
			return fmt.Errorf("leaf %d: run of %d points in a page of %d", l.ord, l.sorted, l.n)
		}
		v := z.store.View(l.pid)
		run := slices.Clone(v.Pts[:l.sorted])
		v.Release()
		for i, p := range run {
			if !l.bounds.Contains(p) {
				return fmt.Errorf("leaf %d: run point %v outside cell %v", l.ord, p, l.bounds)
			}
			if i > 0 && geom.CmpXY(run[i-1], p) > 0 {
				return fmt.Errorf("leaf %d: run out of order at %d: %v before %v", l.ord, i, run[i-1], p)
			}
		}
	}
	return nil
}

// TreeTraversal exposes Algorithm 1 for tests.
func (z *ZIndex) TreeTraversal(p geom.Point) *Leaf {
	var d storage.Stats
	return z.treeTraversal(p, &d)
}

// LowerBoundLeaf exposes the projection lower bound for tests.
func (z *ZIndex) LowerBoundLeaf(p geom.Point) *Leaf {
	var d storage.Stats
	return z.lowerBoundLeaf(p, &d)
}

// UpperBoundLeaf exposes the projection upper bound for tests.
func (z *ZIndex) UpperBoundLeaf(p geom.Point) *Leaf {
	var d storage.Stats
	return z.upperBoundLeaf(p, &d)
}

// CellCost exposes the Eq. 5 evaluator for tests.
func CellCost(cell geom.Rect, split geom.Point, o Ordering, queries []geom.Rect, n [4]float64, alpha float64) float64 {
	return cellCost(cell, split, o, queries, n, alpha)
}

// QuickMedian exposes the selection helper for tests.
func QuickMedian(vals []float64) float64 { return quickMedian(vals) }

// Improves exposes the look-ahead improvement predicate for tests.
func Improves(c Criterion, l, candidate *Leaf) bool { return improves(c, l, candidate) }
