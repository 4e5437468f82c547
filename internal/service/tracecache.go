package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"sync/atomic"

	"jrpm"
	"jrpm/internal/trace"
)

// TraceArtifact is one recorded event trace held by the daemon: the raw
// bytes, the compiled program it was recorded from (needed to replay),
// and the trace summary for cheap introspection. Artifacts are immutable
// once stored — Data is never written after Put — so they are handed to
// concurrent analysis workers without copying.
type TraceArtifact struct {
	Key      string // content address: SHA-256 of Data
	Data     []byte
	Compiled *jrpm.Compiled
	Summary  trace.Summary
}

func (a *TraceArtifact) cacheKey() string { return a.Key }

// TraceKeyOf returns the content address of a recorded trace.
func TraceKeyOf(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// TraceCache is a thread-safe LRU of trace artifacts bounded by total
// byte size. An artifact is charged its trace bytes plus the heap its
// compiled program holds (jrpm.Compiled.HeapBytes): a default-corpus
// recording is about 9 KB and its clean and annotated programs about
// 40 KB, and traces range over orders of magnitude, so counting entries
// would be the wrong unit. Hit/miss/byte counters feed GET /v1/metrics.
type TraceCache struct {
	c *lru[string, *TraceArtifact]

	hits   atomic.Int64
	misses atomic.Int64
}

// NewTraceCache creates a cache holding at most maxBytes of trace data;
// maxBytes <= 0 disables caching (every Get misses, Put drops).
func NewTraceCache(maxBytes int64) *TraceCache {
	return &TraceCache{c: newLRU[string, *TraceArtifact](maxBytes)}
}

// Get returns the artifact for key and refreshes its recency.
func (c *TraceCache) Get(key string) (*TraceArtifact, bool) {
	a, ok := c.c.get(key)
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return a, ok
}

// Put stores an artifact under its content address and returns the key.
// An artifact larger than the whole cache is not stored (it would evict
// everything and then be evicted itself on the next Put). A stored Data
// with more spare capacity than allocator rounding leaves — a
// bytes.Buffer doubled as the trace was written — is copied to its
// length first, so the cache pins only what it charges. The same bytes
// stored again keep the stored artifact, unless that one has no program
// (it was pushed over PUT /v1/traces) and the new one has: then the new
// one replaces it, so analyze_trace can replay the key a record job
// returns.
func (c *TraceCache) Put(a *TraceArtifact) string {
	if a.Key == "" {
		a.Key = TraceKeyOf(a.Data)
	}
	size := int64(len(a.Data))
	if a.Compiled != nil {
		size += a.Compiled.HeapBytes()
	}
	if cap(a.Data)-len(a.Data) > len(a.Data)/8 && size <= c.c.max {
		a.Data = bytes.Clone(a.Data)
	}
	c.c.put(a, size, func(old *TraceArtifact) bool { return old.Compiled != nil || a.Compiled == nil })
	return a.Key
}

// TraceCacheSnapshot is the trace-cache section of GET /v1/metrics.
type TraceCacheSnapshot struct {
	Count    int     `json:"count"`
	Bytes    int64   `json:"bytes"`
	MaxBytes int64   `json:"max_bytes"`
	Hits     int64   `json:"hits"`
	Misses   int64   `json:"misses"`
	HitRatio float64 `json:"hit_ratio"`
}

// Snapshot reports size and hit-rate stats.
func (c *TraceCache) Snapshot() TraceCacheSnapshot {
	count, bytes := c.c.size()
	s := TraceCacheSnapshot{
		Count:    count,
		Bytes:    bytes,
		MaxBytes: c.c.max,
		Hits:     c.hits.Load(),
		Misses:   c.misses.Load(),
	}
	if total := s.Hits + s.Misses; total > 0 {
		s.HitRatio = float64(s.Hits) / float64(total)
	}
	return s
}
