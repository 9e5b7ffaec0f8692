package gateway

import (
	"container/list"
	"sync"

	"parapre/internal/core"
)

// sessionCache is where the gateway's memory goes and what bounds it: the
// built sessions under their SessionKey, most recently used first, each
// charged what core.Session.Bytes counts, the least recently used leaving
// once the sum exceeds the budget. A session some job still solves on lives
// on through that job's pointer when it is evicted and is no longer
// counted, so the sessions alive are bounded by the budget plus one per
// worker.
type sessionCache struct {
	budget int64

	mu      sync.Mutex
	entries map[string]*sessionEntry
	lru     list.List // of *sessionEntry, most recently used in front
	bytes   int64     // Σ entry.bytes ≤ budget whenever mu is free

	hits, misses, evictions int64
}

// sessionEntry is one key's session, built at most once: concurrent jobs
// with the same key wait on ready for the first one's build.
type sessionEntry struct {
	key   string
	elem  *list.Element
	ready chan struct{} // closed once sess and err are final
	sess  *core.Session
	err   error
	bytes int64 // charged to the cache; 0 while the build runs
}

func newSessionCache(budget int64) *sessionCache {
	return &sessionCache{budget: budget, entries: map[string]*sessionEntry{}}
}

// get returns the session under key, building it on a miss; fresh reports
// that this call built it. A build that fails is returned to everyone who
// waited for it and forgotten, so the next job tries again; a session
// larger than the whole budget is served and not kept.
func (c *sessionCache) get(key string, build func() (*core.Session, error)) (sess *core.Session, fresh bool, err error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.hits++
		c.lru.MoveToFront(e.elem)
		c.mu.Unlock()
		<-e.ready
		return e.sess, false, e.err
	}
	c.misses++
	e := &sessionEntry{key: key, ready: make(chan struct{})}
	e.elem = c.lru.PushFront(e)
	c.entries[key] = e
	c.mu.Unlock()

	sess, err = build()
	var n int64
	if err == nil {
		n = sess.Bytes()
	}
	c.mu.Lock()
	e.sess, e.err = sess, err
	if err != nil || n > c.budget {
		c.drop(e)
	} else {
		c.charge(e, n)
	}
	c.mu.Unlock()
	close(e.ready)
	return sess, true, err
}

// recount charges the session what it holds now — Bytes rises over a
// session's first solve, which sizes the inner solvers' scratch — if it is
// still the one cached under key.
func (c *sessionCache) recount(key string, sess *core.Session) {
	n := sess.Bytes() // outside mu: it waits for the session's running solves
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok && e.sess == sess {
		c.charge(e, n)
	}
}

// charge sets what e costs and evicts from the cold end until the budget
// holds again — e itself when nothing colder is left. Callers hold mu.
func (c *sessionCache) charge(e *sessionEntry, n int64) {
	c.bytes += n - e.bytes
	e.bytes = n
	for el := c.lru.Back(); el != nil && c.bytes > c.budget; {
		victim := el.Value.(*sessionEntry)
		el = el.Prev()
		if victim.bytes > 0 { // one still building is charged nothing yet
			c.drop(victim)
			c.evictions++
		}
	}
}

// drop forgets e. Callers hold mu.
func (c *sessionCache) drop(e *sessionEntry) {
	c.bytes -= e.bytes
	e.bytes = 0
	c.lru.Remove(e.elem)
	delete(c.entries, e.key)
}

// cacheStats is what /healthz reports of the cache.
type cacheStats struct {
	Sessions                int
	Bytes, Budget           int64
	Hits, Misses, Evictions int64
}

func (c *sessionCache) stats() cacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return cacheStats{len(c.entries), c.bytes, c.budget, c.hits, c.misses, c.evictions}
}
