package gateway

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"parapre/internal/core"
)

// buildSession validates the spec and builds its session, as a cache miss
// would.
func buildSession(t *testing.T, spec *Spec) *core.Session {
	t.Helper()
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	sess, err := spec.buildSession()
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

func (c *sessionCache) keys() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var ks []string
	for el := c.lru.Front(); el != nil; el = el.Next() {
		ks = append(ks, el.Value.(*sessionEntry).key)
	}
	return strings.Join(ks, " ")
}

// The cache is a least-recently-used list under a byte budget: a hit moves
// its entry to the front, a build that takes the sum over the budget pushes
// entries out from the back, a session larger than the whole budget is
// handed to its job and not kept, and any number of concurrent jobs on one
// key build it once.
func TestSessionCacheLRU(t *testing.T) {
	sess := map[string]*core.Session{}
	for _, k := range []string{"a", "b", "c", "d"} {
		sess[k] = buildSession(t, &Spec{Case: "tc1-poisson2d", Size: 9, Procs: 2, Precond: "Block 1"})
	}
	one := sess["a"].Bytes()
	sess["big"] = buildSession(t, &Spec{Case: "tc1-poisson2d", Size: 33, Procs: 2, Precond: "Block 2"})
	if big := sess["big"].Bytes(); big <= 3*one+one/2 {
		t.Fatalf("the oversize session holds %d bytes, the budget is %d", big, 3*one+one/2)
	}

	c := newSessionCache(3*one + one/2) // room for three
	builds := 0
	get := func(key string) {
		t.Helper()
		got, _, err := c.get(key, func() (*core.Session, error) { builds++; return sess[key], nil })
		if err != nil || got != sess[key] {
			t.Fatalf("get(%s) = %p, %v; want %p", key, got, err, sess[key])
		}
	}
	for _, step := range []struct {
		key    string
		builds int
		order  string
	}{
		{"a", 1, "a"},
		{"b", 2, "b a"},
		{"c", 3, "c b a"},
		{"a", 3, "a c b"},   // a hit moves to the front
		{"d", 4, "d a c"},   // over the budget: b, the coldest, leaves
		{"b", 5, "b d a"},   // and is a miss the next time
		{"big", 6, "b d a"}, // larger than the budget: served, not kept, nothing evicted for it
		{"big", 7, "b d a"}, //   … so it is built again
		{"d", 7, "d b a"},
	} {
		get(step.key)
		if builds != step.builds || c.keys() != step.order {
			t.Fatalf("after get(%s): %d builds, order %q; want %d, %q", step.key, builds, c.keys(), step.builds, step.order)
		}
		if st := c.stats(); st.Bytes > st.Budget || st.Bytes != int64(st.Sessions)*one {
			t.Fatalf("after get(%s): %d bytes counted for %d sessions of %d, budget %d", step.key, st.Bytes, st.Sessions, one, st.Budget)
		}
	}
	if st := c.stats(); st.Hits != 2 || st.Misses != 7 || st.Evictions != 2 {
		t.Fatalf("hits %d misses %d evictions %d, want 2, 7, 2", st.Hits, st.Misses, st.Evictions)
	}

	// Eight jobs on one new key: one build, which the other seven wait for.
	var calls atomic.Int32
	release := make(chan struct{})
	var wg sync.WaitGroup
	fresh := make([]bool, 8)
	for i := range fresh {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got, f, err := c.get("c", func() (*core.Session, error) {
				calls.Add(1)
				<-release
				return sess["c"], nil
			})
			if err != nil || got != sess["c"] {
				t.Errorf("concurrent get = %p, %v", got, err)
			}
			fresh[i] = f
		}(i)
	}
	waitFor(t, func() bool { st := c.stats(); return st.Hits+st.Misses == 9+8 })
	close(release)
	wg.Wait()
	nFresh := 0
	for _, f := range fresh {
		if f {
			nFresh++
		}
	}
	if calls.Load() != 1 || nFresh != 1 {
		t.Fatalf("%d builds, %d callers told they built it; want 1 and 1", calls.Load(), nFresh)
	}
}

// A failed build is handed to the jobs that waited for it and forgotten:
// the next job with that spec builds again instead of failing on a cached
// error, and nothing stays counted.
func TestFailedBuildIsNotCached(t *testing.T) {
	srv, ts := newTestServer(t, Options{Workers: 1})
	// Passes admission (the size line is sane) and fails in the build.
	bad := &Spec{Matrix: "%%MatrixMarket matrix coordinate real general\n2 2 1\n5 5 1.0\n", Procs: 1}
	for attempt := 1; attempt <= 2; attempt++ {
		events := streamEvents(t, ts, submitOK(t, ts, "alice", bad))
		failed := false
		for _, e := range events {
			failed = failed || (e.Type == "error" && strings.Contains(e.Error, "out of range"))
		}
		if !failed {
			t.Fatalf("attempt %d: no build error in %+v", attempt, events)
		}
		if st := srv.sessions.stats(); st.Misses != int64(attempt) || st.Hits != 0 || st.Sessions != 0 || st.Bytes != 0 {
			t.Fatalf("attempt %d: %+v; want %d builds tried, nothing kept", attempt, st, attempt)
		}
	}

	// The waiters of one failed build all get its error.
	c := newSessionCache(1 << 20)
	boom := errors.New("boom")
	release := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := c.get("k", func() (*core.Session, error) { <-release; return nil, boom }); err != boom {
				t.Errorf("waiter got %v, want the build's error", err)
			}
		}()
	}
	waitFor(t, func() bool { st := c.stats(); return st.Hits+st.Misses == 4 })
	close(release)
	wg.Wait()
	if st := c.stats(); st.Misses != 1 || st.Sessions != 0 {
		t.Fatalf("%+v; want one build and no entry", st)
	}
}

// A session is evicted while a job still solves on it: the job holds the
// session by pointer and finishes as if nothing had happened, the cache
// stops counting it at once.
func TestSessionCacheLRUEvictionWhileJobSolves(t *testing.T) {
	slow, small := slowSpec(), &Spec{Case: "tc1-poisson2d", Size: 17, Procs: 2, Precond: "Block 1"}
	room := buildSession(t, slow).Bytes()
	srv, ts := newTestServer(t, Options{Workers: 2, SessionBytes: room + buildSession(t, small).Bytes()/2})
	// Enqueued past admission, which holds a spec to a KiB per unknown and
	// would refuse this one under a budget its session just fits.
	if err := slow.Validate(); err != nil {
		t.Fatal(err)
	}
	running := NewJob("alice", slow)
	if err := srv.enqueue(running); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return running.State() == StateRunning && srv.sessions.stats().Bytes == room })

	streamEvents(t, ts, submitOK(t, ts, "bob", small))
	if st := srv.sessions.stats(); st.Evictions != 1 || st.Sessions != 1 || st.Bytes == 0 || st.Bytes >= room {
		t.Fatalf("after the second spec: %+v; want the running job's session evicted and the small one kept", st)
	}
	if running.State() != StateRunning {
		t.Fatalf("the job on the evicted session is %s, want still running", running.State())
	}

	// The small job can end before the slow one's first iteration does.
	waitFor(t, func() bool {
		events, _ := running.Events(0)
		for _, e := range events {
			if e.Type == "residual" && e.Iter > 0 {
				return true
			}
		}
		return false
	})
	if !running.Cancel() {
		t.Fatal("cancel refused")
	}
	var result *ResultSummary
	for _, e := range streamEvents(t, ts, running.ID) {
		if e.Type == "result" {
			result = e.Result
		}
	}
	if result == nil || !result.Canceled || result.Iterations == 0 {
		t.Fatalf("the job on the evicted session ended with %+v, want a canceled solve that had iterated", result)
	}
	// Its recount finds the session gone and charges nothing.
	waitFor(t, func() bool { _, active := srv.sched.Stats(); return active == 0 })
	if st := srv.sessions.stats(); st.Sessions != 1 || st.Bytes >= room {
		t.Fatalf("after the evicted session's job: %+v", st)
	}
}
