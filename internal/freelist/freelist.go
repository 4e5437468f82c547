// Package freelist keeps idle per-job scratch memory for the next job.
package freelist

import (
	"runtime"
	"sync"
)

// List holds idle objects, at most one per GOMAXPROCS; each caller also
// bounds what an idle object keeps. Unlike a sync.Pool it never empties
// on a garbage collection or drops a Put at random (as sync.Pool does
// under the race detector), so a job's allocations are the same from one
// run to the next and the allocation gates hold under -race. The zero
// List is empty and ready to use.
type List[T any] struct {
	mu   sync.Mutex
	idle []*T
}

// Get returns an idle object, or a new zero one.
func (f *List[T]) Get() *T {
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

// Put keeps x for a later Get unless the list already holds one object
// per GOMAXPROCS, the service's default worker count; past it, idle
// scratch is left to the collector.
func (f *List[T]) Put(x *T) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.idle) < runtime.GOMAXPROCS(0) {
		f.idle = append(f.idle, x)
	}
}
