package service

import (
	"container/list"
	"sync"

	"ftbar/internal/wire"
)

// entry is one content-addressed cache slot. It is created the moment the
// first request for a key is admitted, so identical requests arriving
// while the schedule is still being computed coalesce onto the same
// computation instead of queueing duplicate work. ready is closed exactly
// once, when resp/err are final.
type entry struct {
	key   string
	ready chan struct{}
	resp  *wire.ScheduleResponse
	err   error
	// abandoned marks an entry whose owner never got the job admitted
	// (queue full, owner's context, service closed). The failure is the
	// owner's, not the computation's: coalesced waiters retry instead of
	// inheriting it.
	abandoned bool
	// elem is the entry's node in the LRU list, nil while in flight.
	elem *list.Element
}

// cache is a bounded LRU keyed by canonical request hashes. Entries hold
// finished responses or in-flight computations; only finished successful
// entries count against the capacity and can be evicted. A capacity <= 0
// disables retention: every request computes (in-flight coalescing still
// applies, the map must track running computations either way).
type cache struct {
	mu  sync.Mutex
	max int
	m   map[string]*entry
	lru *list.List // front = most recently used; ready entries only
}

func newCache(max int) *cache {
	return &cache{max: max, m: make(map[string]*entry), lru: list.New()}
}

// acquire returns the entry for key and whether the caller owns the
// computation. A non-owner waits on entry.ready; the owner must resolve
// the entry with complete or abandon.
func (c *cache) acquire(key string) (*entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.m[key]; ok {
		if e.elem != nil {
			c.lru.MoveToFront(e.elem)
		}
		return e, false
	}
	e := &entry{key: key, ready: make(chan struct{})}
	c.m[key] = e
	return e, true
}

// complete publishes the owner's result. Successful responses are
// retained under the LRU policy; failed computations are dropped so a
// later identical request retries.
func (c *cache) complete(e *entry, resp *wire.ScheduleResponse, err error) {
	c.mu.Lock()
	e.resp, e.err = resp, err
	if err != nil || c.max <= 0 {
		delete(c.m, e.key)
	} else {
		e.elem = c.lru.PushFront(e)
		for c.lru.Len() > c.max {
			oldest := c.lru.Back()
			evicted := c.lru.Remove(oldest).(*entry)
			delete(c.m, evicted.key)
		}
	}
	c.mu.Unlock()
	close(e.ready)
}

// abandon resolves an entry the owner could not even start (queue full,
// service closed): waiters receive err and the key is forgotten.
func (c *cache) abandon(e *entry, err error) {
	c.mu.Lock()
	e.err = err
	e.abandoned = true
	delete(c.m, e.key)
	c.mu.Unlock()
	close(e.ready)
}

// len returns the number of retained (ready) entries.
func (c *cache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}
