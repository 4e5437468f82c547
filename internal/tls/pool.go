package tls

import (
	"runtime"
	"sync"
)

// freeList holds idle scratch — simulator tables, recorders and their
// arena chunks — for the next job, one object per GOMAXPROCS; each
// object also bounds what it keeps. Unlike a sync.Pool it never empties
// on a garbage collection or drops a Put at random (as sync.Pool does
// under the race detector), so a job's allocations are the same from one
// run to the next and the allocation gates hold under -race.
type freeList[T any] struct {
	mu   sync.Mutex
	idle []*T
}

// get returns an idle object, or a new zero one.
func (f *freeList[T]) get() *T {
	f.mu.Lock()
	defer f.mu.Unlock()
	if n := len(f.idle); n > 0 {
		x := f.idle[n-1]
		f.idle[n-1] = nil
		f.idle = f.idle[:n-1]
		return x
	}
	return new(T)
}

// put keeps x for a later get unless the list already holds one object
// per GOMAXPROCS, the service's default worker count; past it, idle
// scratch is left to the collector.
func (f *freeList[T]) put(x *T) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.idle) < runtime.GOMAXPROCS(0) {
		f.idle = append(f.idle, x)
	}
}
