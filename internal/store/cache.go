package store

import (
	"container/list"
	"sync"

	"mobipriv/internal/trace"
)

// blockKey identifies one block within a store: segment index plus
// block index in that segment's footer.
type blockKey struct {
	seg   int
	block int
}

// cachedBlock is a decoded block held by the cache. The points slice is
// shared between the cache and every scan that hits it, so consumers
// must treat it as read-only.
type cachedBlock struct {
	user string
	pts  []trace.Point
}

// blockCache is a mutex-guarded LRU over decoded blocks, bounding the
// memory a scan-heavy workload re-decodes. Capacity is counted in
// blocks.
type blockCache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used; values are *cacheItem
	items map[blockKey]*list.Element
}

type cacheItem struct {
	key blockKey
	val cachedBlock
}

func newBlockCache(capacity int) *blockCache {
	if capacity <= 0 {
		return nil // caching disabled
	}
	return &blockCache{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[blockKey]*list.Element, capacity),
	}
}

// get returns the cached block and bumps its recency.
func (c *blockCache) get(k blockKey) (cachedBlock, bool) {
	if c == nil {
		return cachedBlock{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if !ok {
		return cachedBlock{}, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheItem).val, true
}

// put inserts a decoded block, evicting the least recently used entry
// when over capacity.
func (c *blockCache) put(k blockKey, v cachedBlock) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*cacheItem).val = v
		return
	}
	c.items[k] = c.ll.PushFront(&cacheItem{key: k, val: v})
	for c.ll.Len() > c.cap {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.items, last.Value.(*cacheItem).key)
	}
}
