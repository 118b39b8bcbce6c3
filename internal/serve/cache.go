package serve

import (
	"container/list"
	"sync"
)

// planCache is a bounded LRU mapping workload fingerprints to marshaled plan
// JSON. It stores bytes, not *mario.Plan: responses serve the stored bytes
// verbatim, which is what makes a cache hit byte-identical to the Optimize
// run that populated it. The bound is in entries; what they weigh is tracked
// in bytes and reported, so the memory the bound amounts to is a number.
type planCache struct {
	mu    sync.Mutex
	cap   int
	bytes int64      // total len(data) over the entries
	order *list.List // front = most recently used
	items map[string]*list.Element
}

// cacheEntry is one fingerprint → plan-bytes pair.
type cacheEntry struct {
	fp   string
	data []byte
}

// newPlanCache returns a cache bounded to capacity entries (minimum 1).
func newPlanCache(capacity int) *planCache {
	if capacity < 1 {
		capacity = 1
	}
	return &planCache{cap: capacity, order: list.New(), items: make(map[string]*list.Element)}
}

// get returns the cached plan bytes for fp and marks the entry recently
// used. The returned slice must be treated as immutable.
func (c *planCache) get(fp string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[fp]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).data, true
}

// add inserts (or refreshes) an entry and evicts the least recently used one
// when over capacity.
func (c *planCache) add(fp string, data []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.bytes += int64(len(data))
	if el, ok := c.items[fp]; ok {
		e := el.Value.(*cacheEntry)
		c.bytes -= int64(len(e.data))
		e.data = data
		c.order.MoveToFront(el)
		return
	}
	c.items[fp] = c.order.PushFront(&cacheEntry{fp: fp, data: data})
	for c.order.Len() > c.cap {
		back := c.order.Back()
		c.order.Remove(back)
		e := back.Value.(*cacheEntry)
		c.bytes -= int64(len(e.data))
		delete(c.items, e.fp)
	}
}

// size returns the number of cached plans and the bytes they hold.
func (c *planCache) size() (plans int, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len(), c.bytes
}
