package rewrite

import (
	"container/list"
	"sync"
)

// DefaultPlanCacheSize is the plan-cache capacity EnablePlanCache picks for
// n <= 0.
const DefaultPlanCacheSize = 256

// planCache is a bounded LRU of rewritten logical plans keyed on the token
// key sql.ParseKeyed builds. Plans are stored after the labeling's rewrite
// and before physical optimization/lowering, the last point at which they
// are shared-safe: the physical optimizer documents that it never mutates
// its input, so any number of concurrent executions may lower one cached
// plan.
type planCache struct {
	mu    sync.Mutex
	cap   int
	items map[string]*list.Element
	lru   *list.List // front = most recent; values are *planEntry

	hits   int64
	misses int64
}

type planEntry struct {
	key  string
	plan algebraNode
}

func newPlanCache(n int) *planCache {
	if n <= 0 {
		n = DefaultPlanCacheSize
	}
	return &planCache{cap: n, items: make(map[string]*list.Element), lru: list.New()}
}

func (c *planCache) get(key string) (algebraNode, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.lru.MoveToFront(el)
	return el.Value.(*planEntry).plan, true
}

func (c *planCache) put(key string, plan algebraNode) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*planEntry).plan = plan
		c.lru.MoveToFront(el)
		return
	}
	c.items[key] = c.lru.PushFront(&planEntry{key: key, plan: plan})
	for c.lru.Len() > c.cap {
		el := c.lru.Back()
		c.lru.Remove(el)
		delete(c.items, el.Value.(*planEntry).key)
	}
}

func (c *planCache) stats() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}
