package server

import (
	"context"
	"errors"
	"sync/atomic"
)

// errShed is returned by acquire when the waiting queue is full; the HTTP
// layer translates it to 429 Too Many Requests.
var errShed = errors.New("server: admission queue full")

// gate is the semaphore-based admission controller: at most maxInflight
// requests execute concurrently, at most maxQueue more wait for a slot, and
// everything beyond that is shed immediately. Shedding with a cheap 429 is
// the point — under overload the server keeps answering at its capacity
// instead of accumulating goroutines, memory, and tail latency until it
// collapses. The queue-depth check is racy by design (two late arrivals can
// both observe one free queue slot); admission is a load-control heuristic,
// not an exact counter, and an off-by-a-few overshoot is harmless.
type gate struct {
	sem      chan struct{}
	maxQueue int64
	queued   atomic.Int64
	inflight atomic.Int64
	shed     atomic.Int64
	admitted atomic.Int64
}

func newGate(maxInflight, maxQueue int) *gate {
	return &gate{sem: make(chan struct{}, maxInflight), maxQueue: int64(maxQueue)}
}

// acquire admits the caller or returns errShed (queue full) or the context
// error (client gave up while queued). On success release must be called
// exactly once.
func (g *gate) acquire(ctx context.Context) error {
	select {
	case g.sem <- struct{}{}:
	default:
		if g.queued.Load() >= g.maxQueue {
			g.shed.Add(1)
			return errShed
		}
		g.queued.Add(1)
		select {
		case g.sem <- struct{}{}:
			g.queued.Add(-1)
		case <-ctx.Done():
			g.queued.Add(-1)
			return ctx.Err()
		}
	}
	g.inflight.Add(1)
	g.admitted.Add(1)
	return nil
}

// release gives back the slot of one successful acquire.
func (g *gate) release() {
	g.inflight.Add(-1)
	<-g.sem
}
