package serve

import (
	"container/list"
	"sync"
)

// lruCache is a bounded, mutex-guarded LRU for hot-block predictions.
// The daemon's query stream is heavy-tailed — load replays and real
// analysis sessions hammer a small set of hot basic blocks — so a
// small LRU in front of the evaluator pool absorbs most of the
// steady-state traffic while the bound keeps a long-running process
// from turning the cache into a memory leak.
type lruCache[V any] struct {
	mu     sync.Mutex
	cap    int
	ll     *list.List // front = most recently used
	items  map[string]*list.Element
	hits   uint64
	misses uint64
}

// lruEntry is one cached (key, value) pair.
type lruEntry[V any] struct {
	key string
	val V
}

// newLRU returns an LRU holding at most capacity entries (minimum 1).
func newLRU[V any](capacity int) *lruCache[V] {
	if capacity < 1 {
		capacity = 1
	}
	return &lruCache[V]{cap: capacity, ll: list.New(), items: make(map[string]*list.Element)}
}

// get returns the cached value and refreshes its recency.
func (c *lruCache[V]) get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		return el.Value.(*lruEntry[V]).val, true
	}
	c.misses++
	var zero V
	return zero, false
}

// add inserts or refreshes a value, evicting the least recently used
// entry past capacity.
func (c *lruCache[V]) add(key string, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*lruEntry[V]).val = val
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&lruEntry[V]{key: key, val: val})
	if c.ll.Len() > c.cap {
		el := c.ll.Back()
		c.ll.Remove(el)
		delete(c.items, el.Value.(*lruEntry[V]).key)
	}
}

// stats returns (entries, capacity, hits, misses).
func (c *lruCache[V]) stats() (int, int, uint64, uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len(), c.cap, c.hits, c.misses
}
