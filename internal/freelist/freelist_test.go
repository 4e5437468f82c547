package freelist

import (
	"runtime"
	"testing"
)

// TestListBound: a List hands back what was put, newest first, and keeps
// at most one idle object per GOMAXPROCS.
func TestListBound(t *testing.T) {
	var l List[int]
	if x := l.Get(); x == nil || *x != 0 {
		t.Fatalf("Get on an empty list = %v, want a new zero object", x)
	}
	n := runtime.GOMAXPROCS(0)
	put := make([]*int, n+1)
	for i := range put {
		put[i] = new(int)
		*put[i] = i + 1
		l.Put(put[i])
	}
	for i := n - 1; i >= 0; i-- {
		if x := l.Get(); x != put[i] {
			t.Fatalf("Get returned %v, want the object put %d-th", x, i)
		}
	}
	if x := l.Get(); *x != 0 {
		t.Fatalf("Get after draining = %d, want a new zero object: the list kept more than GOMAXPROCS", *x)
	}
}
