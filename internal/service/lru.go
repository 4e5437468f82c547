package service

import (
	"container/list"
	"sync"
)

// keyed is what the LRU stores: a pointer that knows its own key, so a
// list element holds the value itself and an insert allocates only the
// element.
type keyed[K comparable] interface {
	cacheKey() K
}

// lru is the service's one bounded, thread-safe, least-recently-used
// cache. The artifact cache charges 1 per program, the trace cache and
// the input memo charge bytes. Eviction drops the least recently used
// entries that cost something until the total is within max; an entry
// of cost 0 would free nothing, so it stays (the input memo's entries
// cost 0 until their build finishes).
type lru[K comparable, V keyed[K]] struct {
	mu    sync.Mutex
	max   int64
	cur   int64
	ll    *list.List // of V; front = most recently used
	items map[K]lruSlot
}

// lruSlot is one entry's list element and the cost it is charged.
type lruSlot struct {
	el   *list.Element
	cost int64
}

func newLRU[K comparable, V keyed[K]](max int64) *lru[K, V] {
	return &lru[K, V]{max: max, ll: list.New(), items: map[K]lruSlot{}}
}

// get returns the value under k and marks it most recently used.
func (c *lru[K, V]) get(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.items[k]
	if !ok {
		var zero V
		return zero, false
	}
	c.ll.MoveToFront(s.el)
	return s.el.Value.(V), true
}

// put stores v at cost under v's key and marks it most recently used.
// When a value is already stored under the key and keep(old) holds, put
// leaves it in place, marks it most recently used and returns it with
// true; otherwise v replaces it and is charged afresh. A v costing more
// than the whole cache is not stored.
func (c *lru[K, V]) put(v V, cost int64, keep func(old V) bool) (V, bool) {
	if cost > c.max {
		return v, false
	}
	k := v.cacheKey()
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.items[k]
	if ok {
		c.ll.MoveToFront(s.el)
		if old := s.el.Value.(V); keep(old) {
			return old, true
		}
		s.el.Value = v
	} else {
		s.el = c.ll.PushFront(v)
	}
	c.charge(k, s, cost)
	return v, false
}

// keepStored is put's keep for a cache whose values for one key are
// interchangeable: the first one stored stays.
func keepStored[V any](V) bool { return true }

// recharge sets the cost of the entry under k, dropping it when it
// costs more than the whole cache; the caller has the value, so it is
// not lost.
func (c *lru[K, V]) recharge(k K, cost int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.items[k]
	if !ok {
		return
	}
	if cost > c.max {
		c.remove(k, s)
		return
	}
	c.charge(k, s, cost)
}

// charge records s under k at cost, then evicts until the cache is
// within its bound; the caller holds c.mu.
func (c *lru[K, V]) charge(k K, s lruSlot, cost int64) {
	c.cur += cost - s.cost
	s.cost = cost
	c.items[k] = s
	for el := c.ll.Back(); el != nil && c.cur > c.max; {
		prev := el.Prev()
		vk := el.Value.(V).cacheKey()
		if vs := c.items[vk]; vs.cost > 0 {
			c.remove(vk, vs)
		}
		el = prev
	}
}

// remove drops the entry s under k; the caller holds c.mu.
func (c *lru[K, V]) remove(k K, s lruSlot) {
	c.ll.Remove(s.el)
	delete(c.items, k)
	c.cur -= s.cost
}

// size reports the number of entries and their total cost.
func (c *lru[K, V]) size() (n int, cost int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len(), c.cur
}
