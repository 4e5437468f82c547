package runs

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

func ids(n int) []string {
	s := make([]string, n)
	for i := range s {
		s[i] = fmt.Sprintf("r%d", i)
	}
	return s
}

// TestTable covers the retention rule and the live bound: finished runs
// are forgotten oldest first, live runs never are, an Add at the bound
// inserts nothing, Remove undoes an Add, and the live count follows Add
// and Finish. The concurrent Adds and Finishes run under -race in CI.
func TestTable(t *testing.T) {
	t.Run("evicts finished oldest first", func(t *testing.T) {
		tb := New[int](0, 2)
		id := ids(4)
		for i, s := range id {
			tb.Add(s, i)
		}
		// Finish out of insertion order: eviction follows finish order.
		for _, i := range []int{2, 0, 3} {
			tb.Finish(id[i])
		}
		if _, ok := tb.Get(id[2]); ok {
			t.Errorf("Get(%s) hit after eviction", id[2])
		}
		for _, i := range []int{0, 1, 3} {
			if v, ok := tb.Get(id[i]); !ok || v != i {
				t.Errorf("Get(%s) = %d, %v; want %d, true", id[i], v, ok, i)
			}
		}
		if got, want := tb.List(), []int{0, 1, 3}; !reflect.DeepEqual(got, want) {
			t.Errorf("List = %v, want %v (insertion order)", got, want)
		}
		tb.Finish(id[1])
		if _, ok := tb.Get(id[0]); ok {
			t.Errorf("Get(%s) hit after eviction", id[0])
		}
		if got, want := tb.List(), []int{1, 3}; !reflect.DeepEqual(got, want) {
			t.Errorf("List = %v, want %v", got, want)
		}
	})

	t.Run("live runs are never dropped", func(t *testing.T) {
		tb := New[int](0, 1)
		id := ids(5)
		for i, s := range id {
			tb.Add(s, i)
		}
		tb.Finish(id[0])
		tb.Finish(id[1])
		if _, ok := tb.Get(id[0]); ok {
			t.Errorf("Get(%s) hit after eviction", id[0])
		}
		for _, s := range id[1:] {
			if _, ok := tb.Get(s); !ok {
				t.Errorf("Get(%s) missed", s)
			}
		}
		if n := tb.Live(); n != 3 {
			t.Errorf("Live = %d, want 3", n)
		}
	})

	t.Run("Add at the live bound is refused", func(t *testing.T) {
		tb := New[int](2, 4)
		if !tb.Add("a", 1) || !tb.Add("b", 2) {
			t.Fatal("Add under the bound refused")
		}
		if tb.Add("c", 3) {
			t.Error("Add at the bound accepted")
		}
		if _, ok := tb.Get("c"); ok {
			t.Error("refused Add inserted its run")
		}
		if n := len(tb.List()); n != 2 {
			t.Errorf("List holds %d runs, want 2", n)
		}
		tb.Finish("a")
		if !tb.Add("c", 3) {
			t.Error("Add after a Finish refused")
		}
	})

	t.Run("Remove takes back an Add", func(t *testing.T) {
		tb := New[int](1, 1)
		tb.Add("a", 1)
		tb.Remove("a")
		if _, ok := tb.Get("a"); ok || tb.Live() != 0 || len(tb.List()) != 0 {
			t.Errorf("after Remove: Get hit %v, Live %d, List %v; want a miss and an empty table", ok, tb.Live(), tb.List())
		}
		tb.Add("b", 2)
		tb.Finish("b")
		tb.Remove("b") // a finished run stays retained
		if _, ok := tb.Get("b"); !ok {
			t.Error("Remove dropped a finished run")
		}
	})

	t.Run("live count follows Add and Finish", func(t *testing.T) {
		const n = 64
		tb := New[int](n, n)
		id := ids(n)
		var wg sync.WaitGroup
		for i := range id {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if !tb.Add(id[i], i) {
					t.Errorf("Add(%s) refused under the bound", id[i])
				}
			}(i)
		}
		wg.Wait()
		if got := tb.Live(); got != n {
			t.Fatalf("Live = %d after %d Adds", got, n)
		}
		for i := range id {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				tb.Finish(id[i])
				tb.Finish(id[i]) // a second Finish is a no-op
			}(i)
		}
		wg.Wait()
		if got := tb.Live(); got != 0 {
			t.Errorf("Live = %d after every run finished", got)
		}
		if got := len(tb.List()); got != n {
			t.Errorf("List holds %d runs, want %d retained", got, n)
		}
	})
}
