package geom

// DistSq returns the squared Euclidean distance between a and b. Nearest-
// neighbour paths compare squared distances to stay monotone without the
// square root.
func DistSq(a, b Point) float64 {
	dx, dy := a.X-b.X, a.Y-b.Y
	return dx*dx + dy*dy
}

// DistLess orders points by (distance to q, X, Y). The coordinate tie-break
// makes it a total order on point values, so equidistant neighbours resolve
// identically on every backend, shard layout, and run — the property the
// differential suites rely on to compare kNN results byte for byte.
func DistLess(a, b, q Point) bool {
	da, db := DistSq(a, q), DistSq(b, q)
	if da != db {
		return da < db
	}
	if a.X != b.X {
		return a.X < b.X
	}
	return a.Y < b.Y
}

// SortByDistance sorts pts in place by DistLess to q, nearest first. It is
// a heapsort: no allocation (sort.Slice allocates its closure and swaps
// through an interface) and a deterministic result for any input order.
func SortByDistance(pts []Point, q Point) {
	n := len(pts)
	for i := n/2 - 1; i >= 0; i-- {
		siftDist(pts, i, n, q)
	}
	for end := n - 1; end > 0; end-- {
		pts[0], pts[end] = pts[end], pts[0]
		siftDist(pts, 0, end, q)
	}
}

// NearestK moves the k points of pts nearest to q into pts[:k], ordered by
// DistLess, nearest first, and leaves the rest of pts in unspecified order:
// a bounded max-heap of the k best so far, then a heapsort of that heap, so
// O(len(pts) log k) instead of SortByDistance's O(len(pts) log len(pts)).
// Because DistLess is a total order on point values, pts[:k] equals the
// first k points SortByDistance would produce. k >= len(pts) sorts all of
// pts; k <= 0 leaves it untouched.
func NearestK(pts []Point, k int, q Point) {
	if k >= len(pts) {
		SortByDistance(pts, q)
		return
	}
	if k <= 0 {
		return
	}
	for i := k/2 - 1; i >= 0; i-- {
		siftDist(pts, i, k, q)
	}
	for i := k; i < len(pts); i++ {
		if DistLess(pts[i], pts[0], q) {
			pts[0], pts[i] = pts[i], pts[0]
			siftDist(pts, 0, k, q)
		}
	}
	SortByDistance(pts[:k], q)
}

// siftDist restores the max-heap property (by DistLess) for the subtree at
// root within pts[:end].
func siftDist(pts []Point, root, end int, q Point) {
	for {
		child := 2*root + 1
		if child >= end {
			return
		}
		if child+1 < end && DistLess(pts[child], pts[child+1], q) {
			child++
		}
		if !DistLess(pts[root], pts[child], q) {
			return
		}
		pts[root], pts[child] = pts[child], pts[root]
		root = child
	}
}
