package gateway

import (
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"parapre/internal/core"
	"parapre/internal/dsys"
)

// built is a session on a problem of its own, as a miss on an empty cache
// builds it.
type built struct {
	*core.Session
	prob *core.Problem
}

// Bytes is what the cache charges for it: the problem and the session.
func (b built) Bytes() int64 { return b.prob.Bytes() + b.Session.Bytes() }

// buildSession validates the spec and builds its problem and session, as a
// miss on an empty cache would.
func buildSession(t *testing.T, spec *Spec) built {
	t.Helper()
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	b := spec.build()
	prob, err := b.problem()
	if err != nil {
		t.Fatal(err)
	}
	sess, err := b.session(prob)
	if err != nil {
		t.Fatal(err)
	}
	return built{sess, prob}
}

// prebuilt is a build that hands out b's problem and session and counts
// the sessions it is asked for.
func prebuilt(key string, b built, builds *int) build {
	return build{
		problemKey: key,
		problem:    func() (*core.Problem, error) { return b.prob, nil },
		session:    func(*core.Problem) (*core.Session, error) { *builds++; return b.Session, nil },
	}
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
	sess := map[string]built{}
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
		got, err := c.get(key, prebuilt(key, sess[key], &builds))
		if err != nil || got != sess[key].Session {
			t.Fatalf("get(%s) = %p, %v; want %p", key, got, err, sess[key].Session)
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
		if st := c.stats(); st.Bytes > st.Budget || st.Bytes != int64(st.Sessions)*one || st.Problems != st.Sessions {
			t.Fatalf("after get(%s): %d bytes counted for %d sessions of %d on %d problems, budget %d",
				step.key, st.Bytes, st.Sessions, one, st.Problems, st.Budget)
		}
	}
	if st := c.stats(); st.Hits != 2 || st.Misses != 7 || st.Evictions != 2 {
		t.Fatalf("hits %d misses %d evictions %d, want 2, 7, 2", st.Hits, st.Misses, st.Evictions)
	}

	// Eight jobs on one new key: one build, which the other seven wait for.
	var calls atomic.Int32
	release := make(chan struct{})
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b := prebuilt("c", sess["c"], new(int))
			b.session = func(*core.Problem) (*core.Session, error) {
				calls.Add(1)
				<-release
				return sess["c"].Session, nil
			}
			got, err := c.get("c", b)
			if err != nil || got != sess["c"].Session {
				t.Errorf("concurrent get = %p, %v", got, err)
			}
		}()
	}
	waitFor(t, func() bool { st := c.stats(); return st.Hits+st.Misses == 9+8 })
	close(release)
	wg.Wait()
	if st := c.stats(); calls.Load() != 1 || st.Misses != 8 || st.Hits != 9 {
		t.Fatalf("%d builds, %d misses, %d hits; want 1 build, one more miss (8) and seven more hits (9)",
			calls.Load(), st.Misses, st.Hits)
	}
}

// A failed build is handed to the jobs that waited for it and forgotten:
// the next job with that spec builds again instead of failing on a cached
// error, and nothing stays counted — no session, and no problem, whether
// the problem's build failed or the session's on a problem that was built.
func TestFailedBuildIsNotCached(t *testing.T) {
	srv, ts := newTestServer(t, Options{Workers: 1})
	for _, tc := range []struct {
		what string
		spec *Spec
	}{
		// All pass admission (the size line is sane). The first fails in
		// parsing, the second in factoring the problem it parsed: its first
		// pivot is zero. The third is Block IC on the convection case,
		// which is not SPD: IC(0) repairs pivots, and Block IC refuses the
		// factor at set-up.
		{"out of range", &Spec{Matrix: "%%MatrixMarket matrix coordinate real general\n2 2 1\n5 5 1.0\n", Procs: 1}},
		{"factorization singular", &Spec{Matrix: "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 0.0\n2 1 1.0\n2 2 1.0\n", Procs: 1, Precond: "Block 2"}},
		{"not positive definite", &Spec{Case: "tc5-convdiff", Precond: "Block IC", UseCG: true}},
	} {
		before := srv.sessions.stats().Misses
		for attempt := 1; attempt <= 2; attempt++ {
			events := streamEvents(t, ts, submitOK(t, ts, "alice", tc.spec))
			failed := false
			for _, e := range events {
				failed = failed || (e.Type == "error" && strings.Contains(e.Error, tc.what))
			}
			if !failed {
				t.Fatalf("%s, attempt %d: no build error in %+v", tc.what, attempt, events)
			}
			if st := srv.sessions.stats(); st.Misses != before+int64(attempt) || st.Hits != 0 || st.Sessions != 0 ||
				st.Problems != 0 || st.Bytes != 0 || st.Shares != 0 {
				t.Fatalf("%s, attempt %d: %+v; want %d builds tried, nothing kept", tc.what, attempt, st, attempt)
			}
		}
	}

	// The waiters of one failed build all get its error, and those of a
	// failed problem build too.
	boom := errors.New("boom")
	for _, fail := range []string{"session", "problem"} {
		c := newSessionCache(1 << 20)
		release := make(chan struct{})
		b := build{
			problemKey: "p",
			problem:    func() (*core.Problem, error) { return &core.Problem{}, nil },
			session:    func(*core.Problem) (*core.Session, error) { <-release; return nil, boom },
		}
		if fail == "problem" {
			b.problem = func() (*core.Problem, error) { <-release; return nil, boom }
		}
		var wg sync.WaitGroup
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := c.get("k", b); err != boom {
					t.Errorf("%s build: waiter got %v, want the build's error", fail, err)
				}
			}()
		}
		waitFor(t, func() bool { st := c.stats(); return st.Hits+st.Misses == 4 })
		close(release)
		wg.Wait()
		if st := c.stats(); st.Misses != 1 || st.Sessions != 0 || st.Problems != 0 {
			t.Fatalf("%s build: %+v; want one build, no entry and no problem", fail, st)
		}
	}
}

// A problem is held by the sessions cached on it and leaves with the last
// of them. Under a budget for one session and its problem, the second
// preconditioner on the same system shares the first one's problem and
// evicts the first session; the problem stays, counted once. A session on
// another system then evicts the second, and the shared problem goes with
// it: /healthz counts one problem, the new one. The jobs are enqueued past
// admission, which holds a spec to a KiB per unknown and would refuse them
// under a budget their sessions fit.
func TestProblemLeavesWithLastSession(t *testing.T) {
	first := &Spec{Case: "tc1-poisson2d", Size: 17, Procs: 2, Precond: "Block 1"}
	second := &Spec{Case: "tc1-poisson2d", Size: 17, Procs: 2, Precond: "Block 2"}
	other := &Spec{Case: "tc5-convdiff", Size: 17, Procs: 2, Precond: "Block 1"}
	room := buildSession(t, second).Bytes()
	srv, ts := newTestServer(t, Options{Workers: 1, SessionBytes: room + room/8}) // and the scratch of a solve
	health := func() map[string]float64 {
		h := map[string]float64{}
		waitFor(t, func() bool {
			var raw map[string]any
			getJSON(t, ts, "/healthz", &raw)
			for k, v := range raw {
				h[k], _ = v.(float64)
			}
			return h["active"] == 0
		})
		return h
	}
	for _, step := range []struct {
		spec                                        *Spec
		sessions, problems, shares, evictions, hits float64
	}{
		{first, 1, 1, 0, 0, 0},
		{second, 1, 1, 1, 1, 0},
		{second, 1, 1, 1, 1, 1},
		{other, 1, 1, 1, 2, 1},
	} {
		j := NewJob("alice", step.spec)
		if err := srv.enqueue(j); err != nil {
			t.Fatal(err)
		}
		events := streamEvents(t, ts, j.ID)
		if last := events[len(events)-1]; last.Type != "state" || last.State != StateDone {
			t.Fatalf("%s: ended with %+v", step.spec.Precond, last)
		}
		h := health()
		for key, want := range map[string]float64{
			"sessions": step.sessions, "problems": step.problems, "problem_shares": step.shares,
			"session_evictions": step.evictions, "session_hits": step.hits,
		} {
			if h[key] != want {
				t.Errorf("after %s on %s: %s = %v, want %v", step.spec.Precond, step.spec.Case, key, h[key], want)
			}
		}
		if h["problem_bytes"] <= 0 || h["problem_bytes"] >= h["session_bytes"] || h["session_bytes"] > h["session_budget"] {
			t.Errorf("after %s on %s: problem_bytes %v, session_bytes %v, budget %v",
				step.spec.Precond, step.spec.Case, h["problem_bytes"], h["session_bytes"], h["session_budget"])
		}
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
	// Its end charges nothing: the cache no longer holds its session.
	waitFor(t, func() bool { _, active := srv.sched.Stats(); return active == 0 })
	if st := srv.sessions.stats(); st.Sessions != 1 || st.Bytes >= room {
		t.Fatalf("after the evicted session's job: %+v", st)
	}
}

// Specs that differ only in preconditioner or P share one problem, and
// those with the same P its layout too: Block 2, Schur 1 and Schur 2 at
// P = 4 and Schur 1 at P = 8 on tc1 at 33 assemble the matrix once and
// partition and distribute it twice, once per P; the other two set-ups
// reuse a layout.
func TestSpecsShareProblemAndLayout(t *testing.T) {
	c := newSessionCache(1 << 30)
	problems := 0
	var sessions []*core.Session
	for _, x := range []struct {
		precond string
		procs   int
	}{{"Block 2", 4}, {"Schur 1", 4}, {"Schur 2", 4}, {"Schur 1", 8}} {
		spec := &Spec{Case: "tc1-poisson2d", Size: 33, Procs: x.procs, Precond: x.precond}
		if err := spec.Validate(); err != nil {
			t.Fatal(err)
		}
		b := spec.build()
		problem := b.problem
		b.problem = func() (*core.Problem, error) { problems++; return problem() }
		sess, err := c.get(spec.SessionKey(), b)
		if err != nil {
			t.Fatalf("%s P %d: %v", x.precond, x.procs, err)
		}
		sessions = append(sessions, sess)
	}
	layouts := map[*dsys.System]bool{}
	for _, s := range sessions {
		layouts[s.Systems()[0]] = true
	}
	builds, reuses := len(layouts), len(sessions)-len(layouts)
	if st := c.stats(); problems != 1 || builds != 2 || reuses != 2 || st.Problems != 1 || st.Shares != 3 || st.Misses != 4 || st.Hits != 0 {
		t.Fatalf("%d problem builds, %d layout builds, %d reuses, cache %+v; want 1, 2, 2, four misses, one problem shared three times",
			problems, builds, reuses, st)
	}
}
