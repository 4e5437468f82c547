package service

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"

	"jrpm"
)

// CacheKey returns the content address of a compile-stage artifact: the
// SHA-256 of the source text plus every option that changes the compiled
// output (annotation policy and the scalar optimizer). Run-stage options
// — machine config, tracer policies, selection thresholds — deliberately
// do not participate, so profiling the same program under different
// runtime policies still hits the cache.
func CacheKey(src string, opts jrpm.Options) string {
	opts = jrpm.Normalize(opts)
	h := sha256.New()
	io.WriteString(h, "jrpm-artifact-v1\x00")
	io.WriteString(h, src)
	fmt.Fprintf(h, "\x00annot=%+v\x00optimize=%v", opts.Annot, opts.Optimize)
	return hex.EncodeToString(h.Sum(nil))
}

// Cache is a bounded, thread-safe LRU of compiled artifacts keyed by
// CacheKey. Values are *jrpm.Compiled, which are read-only after
// construction (see tir.Program), so a cached artifact is handed out to
// concurrent workers without copying.
type Cache struct{ c *lru[string, *cacheEntry] }

type cacheEntry struct {
	key string
	val *jrpm.Compiled
}

func (e *cacheEntry) cacheKey() string { return e.key }

// NewCache creates a cache holding at most max artifacts; max <= 0
// disables caching (every Get misses).
func NewCache(max int) *Cache { return &Cache{newLRU[string, *cacheEntry](int64(max))} }

// Get returns the artifact for key and refreshes its recency.
func (c *Cache) Get(key string) (*jrpm.Compiled, bool) {
	e, ok := c.c.get(key)
	if !ok {
		return nil, false
	}
	return e.val, true
}

// Put inserts an artifact, evicting the least recently used entry when
// over capacity. An artifact already cached under key stays and is
// refreshed: compilation is deterministic, so both are the same program.
func (c *Cache) Put(key string, val *jrpm.Compiled) {
	if _, ok := c.c.get(key); !ok {
		c.c.put(&cacheEntry{key: key, val: val}, 1, keepStored)
	}
}

// Len returns the number of cached artifacts.
func (c *Cache) Len() int {
	n, _ := c.c.size()
	return n
}

// Compile returns src compiled under opts through the artifact cache,
// compiling and storing it on a miss; hit reports a cache hit. Jobs,
// sessions and the cluster worker's shards compile here and count in the
// pool's artifact-cache hit and miss counters. In-process sweeps (the
// coordinator's local shards, cluster.Local and the callers that compile
// before them) compile through cluster.Compile's process-wide cache
// instead, which counts nothing.
func (p *Pool) Compile(src string, opts jrpm.Options) (c *jrpm.Compiled, hit bool, err error) {
	key := CacheKey(src, opts)
	if c, ok := p.cache.Get(key); ok {
		p.metrics.CacheHits.Add(1)
		return c, true, nil
	}
	p.metrics.CacheMisses.Add(1)
	if c, err = jrpm.Compile(src, opts); err != nil {
		return nil, false, err
	}
	p.cache.Put(key, c)
	return c, false, nil
}
