package server

import (
	"container/list"
	"sync"

	"pde/internal/core"
)

// routeCacheKey includes the table fingerprint, so entries computed
// against a pre-swap shard can never answer for its replacement: after a
// hot-swap every lookup misses until the route is re-expanded against the
// new tables, and the stale generation ages out of the LRU naturally.
type routeCacheKey struct {
	fp string
	v  int32
	s  int32
}

// routeCache is a small mutex-guarded LRU over expanded routes. Route
// expansion walks the graph hop by hop (tens of oracle lookups per
// query), so hot (v, s) pairs are worth remembering; point estimates are
// a single binary search and are not cached.
type routeCache struct {
	mu  sync.Mutex
	cap int
	ll  *list.List // front = most recent; values are *routeCacheEntry
	m   map[routeCacheKey]*list.Element
}

type routeCacheEntry struct {
	key routeCacheKey
	rt  *core.Route
}

func newRouteCache(capacity int) *routeCache {
	return &routeCache{cap: capacity, ll: list.New(), m: make(map[routeCacheKey]*list.Element, capacity)}
}

func (c *routeCache) get(k routeCacheKey) (*core.Route, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[k]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*routeCacheEntry).rt, true
}

func (c *routeCache) put(k routeCacheKey, rt *core.Route) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[k]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*routeCacheEntry).rt = rt
		return
	}
	c.m[k] = c.ll.PushFront(&routeCacheEntry{key: k, rt: rt})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.m, oldest.Value.(*routeCacheEntry).key)
	}
}

func (c *routeCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
