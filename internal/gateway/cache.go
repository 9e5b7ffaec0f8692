package gateway

import (
	"container/list"
	"sync"

	"parapre/internal/core"
)

// sessionCache is where the gateway's memory goes and what bounds it: the
// built sessions under their SessionKey, most recently used first, and the
// problems they are built on, one per system under its problemKey. Specs
// that differ only in how the system is solved — preconditioner, P, solver
// shape — share one problem, and with it the layouts its memo holds. A
// problem is charged once, what core.Problem.Bytes counts, while a cached
// session is built on it; each cached session is charged what
// core.Session.Bytes counts beyond its problem, once, when it is built: a
// solve adds nothing to it, since the preconditioners hold no apply
// scratch between solves. The least recently used session leaves once the sum exceeds the budget, and a problem when no
// cached session and no build in flight holds it. A session some job still
// solves on lives on through that job's pointer when it is evicted and is
// no longer counted, so the sessions alive are bounded by the budget plus
// one per worker.
type sessionCache struct {
	budget int64

	mu       sync.Mutex
	entries  map[string]*sessionEntry
	problems map[string]*problemEntry
	lru      list.List // of *sessionEntry, most recently used in front
	bytes    int64     // Σ charged sessions and problems ≤ budget whenever mu is free

	hits, misses, evictions int64
	shares                  int64 // misses that found their problem built or building
}

// sessionEntry is one key's session, built at most once: concurrent jobs
// with the same key wait on ready for the first one's build.
type sessionEntry struct {
	key   string
	elem  *list.Element
	ready chan struct{} // closed once sess and err are final
	sess  *core.Session
	err   error
	prob  *problemEntry // held from the miss until the entry is dropped
	kept  bool          // built, cached and charged
	bytes int64         // charged to the cache while kept
}

// problemEntry is one system's problem, built at most once while anything
// holds it: the misses on its key wait on ready for the first one's build.
type problemEntry struct {
	key   string
	ready chan struct{} // closed once prob and err are final
	prob  *core.Problem
	err   error
	refs  int   // session entries on it: cached, or building
	kept  int   // cached session entries on it
	bytes int64 // charged to the cache while kept > 0
}

// build is what a miss builds: the problem under problemKey, unless the
// cache holds it or another miss is building it, and the session on it.
type build struct {
	problemKey string
	problem    func() (*core.Problem, error)
	session    func(*core.Problem) (*core.Session, error)
}

func newSessionCache(budget int64) *sessionCache {
	return &sessionCache{budget: budget, entries: map[string]*sessionEntry{}, problems: map[string]*problemEntry{}}
}

// get returns the session under key, building it on a miss. A build that
// fails — the problem's or the
// session's — is returned to everyone who waited for it and forgotten, so
// the next job tries again; a session that with its problem is larger than
// the whole budget is served and not kept.
func (c *sessionCache) get(key string, b build) (sess *core.Session, err error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.hits++
		c.lru.MoveToFront(e.elem)
		c.mu.Unlock()
		<-e.ready
		return e.sess, e.err
	}
	c.misses++
	e := &sessionEntry{key: key, ready: make(chan struct{})}
	e.elem = c.lru.PushFront(e)
	c.entries[key] = e
	pe, shared := c.problems[b.problemKey]
	if shared {
		c.shares++
	} else {
		pe = &problemEntry{key: b.problemKey, ready: make(chan struct{})}
		c.problems[pe.key] = pe
	}
	pe.refs++
	e.prob = pe
	c.mu.Unlock()

	if !shared {
		prob, err := b.problem()
		c.mu.Lock()
		pe.prob, pe.err = prob, err
		if err != nil {
			c.forget(pe) // its waiters fail with it, the next miss builds anew
		}
		c.mu.Unlock()
		close(pe.ready)
	}
	<-pe.ready
	var n, pn int64
	if err = pe.err; err == nil {
		if sess, err = b.session(pe.prob); err == nil {
			n, pn = sess.Bytes(), pe.prob.Bytes()
		}
	}
	c.mu.Lock()
	e.sess, e.err = sess, err
	if err != nil || n+pn > c.budget {
		c.drop(e)
	} else {
		e.kept = true
		pe.kept++
		c.charge(e, n, pn)
	}
	c.mu.Unlock()
	close(e.ready)
	return sess, err
}

// charge sets what the kept e and its problem cost and evicts from the cold
// end until the budget holds again — e itself when nothing colder is left.
// A problem's charge only rises: its memo only gains layouts, and a walk
// that finishes late may have started before another build added one.
// Callers hold mu.
func (c *sessionCache) charge(e *sessionEntry, n, pn int64) {
	c.bytes += n - e.bytes
	e.bytes = n
	if pe := e.prob; pn > pe.bytes {
		c.bytes += pn - pe.bytes
		pe.bytes = pn
	}
	for el := c.lru.Back(); el != nil && c.bytes > c.budget; {
		victim := el.Value.(*sessionEntry)
		el = el.Prev()
		if victim.kept { // one still building is charged nothing yet
			c.drop(victim)
			c.evictions++
		}
	}
}

// drop forgets e and lets go of its problem, which stops being charged
// with its last cached session and leaves with its last entry. Callers hold
// mu.
func (c *sessionCache) drop(e *sessionEntry) {
	pe := e.prob
	if e.kept {
		c.bytes -= e.bytes
		e.bytes, e.kept = 0, false
		if pe.kept--; pe.kept == 0 {
			c.bytes -= pe.bytes
			pe.bytes = 0
		}
	}
	if pe.refs--; pe.refs == 0 {
		c.forget(pe)
	}
	c.lru.Remove(e.elem)
	delete(c.entries, e.key)
}

// forget removes pe from the problem map unless a later build has taken
// its key. Callers hold mu.
func (c *sessionCache) forget(pe *problemEntry) {
	if c.problems[pe.key] == pe {
		delete(c.problems, pe.key)
	}
}

// cacheStats is what /healthz reports of the cache. Bytes is what the
// budget bounds: ProblemBytes of it are the problems'.
type cacheStats struct {
	Sessions, Problems      int
	Bytes, Budget           int64
	ProblemBytes            int64
	Hits, Misses, Evictions int64
	Shares                  int64
}

func (c *sessionCache) stats() cacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	var pb int64
	for _, pe := range c.problems {
		pb += pe.bytes
	}
	return cacheStats{
		Sessions: len(c.entries), Problems: len(c.problems),
		Bytes: c.bytes, Budget: c.budget, ProblemBytes: pb,
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions, Shares: c.shares,
	}
}
