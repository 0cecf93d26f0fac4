package server

// The server's in-memory caches. Query-preserving watermarking assumes
// detection is re-run many times against the same suspect data
// (arXiv:1909.11369's setting, and any dispute that escalates), so the
// server keeps what repeat requests would otherwise rebuild. One LRU
// type backs all three caches:
//
//   - the suspect-document cache (docCache, below): parsing a large XML
//     body and building its DocumentIndex dominates the cost of an
//     indexed detection, so parses are keyed on the SHA-256 of the raw
//     request body;
//   - the decode-plan cache (decodeplans.go): compiled receipt query
//     sets, keyed (owner, receipt, kind);
//   - the delivery-plan cache (deliver.go): bound splice plans, keyed
//     (owner, digest).
//
// Cached values are strictly read-only and shared across requests:
// detection and verification never mutate a tree, and embedding (which
// does) bypasses the document cache entirely.
//
// The document cache is bounded two ways: an entry-count cap and a
// total-bytes cap, weighted by each entry's source body length (a
// stable proxy for the parsed tree + index footprint, which scale
// linearly with it). The entry cap alone proved insufficient: 128
// cached 40 MB suspects is 5 GB of trees, while 128 one-record
// documents is nothing. An entry whose weight alone exceeds the byte
// cap is served but never cached — one oversized suspect must not
// flush every tenant's working set. The plan caches are bounded by
// entry count only.

import (
	"container/list"
	"crypto/sha256"
	"sync"

	"wmxml/internal/index"
	"wmxml/internal/xmltree"
)

// lru is a least-recently-used map bounded by an entry count and,
// optionally, a total weight. Safe for concurrent use.
type lru[K comparable, V any] struct {
	mu         sync.Mutex
	maxEntries int   // 0 disables the cache
	maxWeight  int64 // 0 = unlimited
	weight     int64 // current total weight
	entries    map[K]*list.Element
	order      *list.List // front = most recent; values are *lruEntry[K, V]
}

type lruEntry[K comparable, V any] struct {
	key    K
	val    V
	weight int64
}

// newLRU builds a cache of at most maxEntries entries and, when
// maxWeight > 0, at most maxWeight total weight. Negative bounds count
// as zero.
func newLRU[K comparable, V any](maxEntries int, maxWeight int64) *lru[K, V] {
	return &lru[K, V]{
		maxEntries: max(maxEntries, 0),
		maxWeight:  max(maxWeight, 0),
		entries:    make(map[K]*list.Element),
		order:      list.New(),
	}
}

// Get returns the cached value for key, refreshing its recency.
func (c *lru[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry[K, V]).val, true
}

// Put inserts or replaces key's value, evicting least-recently-used
// entries while either bound is exceeded, and returns how many were
// evicted. A value heavier than the weight bound is not stored at all.
func (c *lru[K, V]) Put(key K, val V, weight int64) (evicted int) {
	weight = max(weight, 0)
	if c.maxEntries == 0 || (c.maxWeight > 0 && weight > c.maxWeight) {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		en := el.Value.(*lruEntry[K, V])
		c.weight += weight - en.weight
		en.val, en.weight = val, weight
	} else {
		c.entries[key] = c.order.PushFront(&lruEntry[K, V]{key: key, val: val, weight: weight})
		c.weight += weight
	}
	for c.order.Len() > c.maxEntries || (c.maxWeight > 0 && c.weight > c.maxWeight) {
		en := c.order.Remove(c.order.Back()).(*lruEntry[K, V])
		delete(c.entries, en.key)
		c.weight -= en.weight
		evicted++
	}
	return evicted
}

// Len reports the current entry count.
func (c *lru[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Weight reports the current total weight.
func (c *lru[K, V]) Weight() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.weight
}

// cachedDoc is one parsed suspect: the immutable tree and its index.
type cachedDoc struct {
	doc *xmltree.Node
	ix  *index.Index
}

// docCache is the content-hash-keyed LRU of parsed documents, weighted
// by source body length, plus a singleflight over its misses: the one
// cache whose fills are expensive enough to coalesce. The index's lazy
// key-value tables lock internally, so sharing a cached index across
// concurrent readers is sound.
type docCache struct {
	*lru[[sha256.Size]byte, cachedDoc]

	// Singleflight over cache fills: concurrent cold requests for the
	// same body hash share one parse+index instead of each doing the
	// full work (the miss stampede). Guarded by its own mutex so a
	// flight's bookkeeping never contends with cache hits.
	flightMu sync.Mutex
	flights  map[[sha256.Size]byte]*flightCall
}

// flightCall is one in-progress fill. The leader populates cd/err and
// calls done; waiters block on wg and then read them (the WaitGroup
// provides the happens-before edge).
type flightCall struct {
	wg  sync.WaitGroup
	cd  cachedDoc
	err error
}

func newDocCache(maxEntries int, maxBytes int64) *docCache {
	return &docCache{
		lru:     newLRU[[sha256.Size]byte, cachedDoc](maxEntries, maxBytes),
		flights: make(map[[sha256.Size]byte]*flightCall),
	}
}

// join enters the singleflight for a body hash. The first caller per
// key becomes the leader (leader == true) and must eventually call
// complete; everyone else gets the same *flightCall and should wait on
// its WaitGroup, then read cd/err.
func (c *docCache) join(key [sha256.Size]byte) (f *flightCall, leader bool) {
	c.flightMu.Lock()
	defer c.flightMu.Unlock()
	if f, ok := c.flights[key]; ok {
		return f, false
	}
	f = &flightCall{}
	f.wg.Add(1)
	c.flights[key] = f
	return f, true
}

// complete publishes the leader's result (or error) to all waiters and
// retires the flight. New requests for the same key after this point
// either hit the now-populated cache or start a fresh flight.
func (c *docCache) complete(key [sha256.Size]byte, f *flightCall, cd cachedDoc, err error) {
	f.cd = cd
	f.err = err
	c.flightMu.Lock()
	delete(c.flights, key)
	c.flightMu.Unlock()
	f.wg.Done()
}
