package shard

import (
	"slices"
	"testing"
)

// TestPoolRun holds the shim to the loop a fan-out is: every index, in order.
func TestPoolRun(t *testing.T) {
	var got []int
	NewPool(4).Run(5, func(i int) { got = append(got, i) })
	if want := []int{0, 1, 2, 3, 4}; !slices.Equal(got, want) {
		t.Fatalf("Run(5) called fn with %v, want %v", got, want)
	}
}
