package shard

// Pool is what is left of the fan-out worker pool: a fan-out is a loop on
// the calling goroutine (docs/SERVING.md, "Fan-out"), and Run is that loop.
// The type survives only because benchmark/layers.go, a contract this
// repository's PRs may not edit, builds one for its shard.pool_run_ns
// probe; the next benchmark-archetype PR removes the probe and this file.
// Nothing outside benchmark/ may use it.
type Pool struct{}

// NewPool ignores the worker count: there are no workers.
func NewPool(int) *Pool { return &Pool{} }

// Run calls fn(i) for every i in [0, n), in order, on the caller.
func (*Pool) Run(n int, fn func(int)) {
	for i := 0; i < n; i++ {
		fn(i)
	}
}

// Close does nothing: there is nothing to stop.
func (*Pool) Close() {}
