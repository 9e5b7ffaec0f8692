package gateway

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// soakSpecs returns forty distinct small specs: two cases, five sizes, four
// preconditioners.
func soakSpecs() []*Spec {
	var specs []*Spec
	for _, c := range []string{"tc1-poisson2d", "tc5-convdiff"} {
		for size := 13; size <= 21; size += 2 {
			for _, k := range []string{"Block 1", "Block 2", "Schur 1", "Schur 2"} {
				specs = append(specs, &Spec{Case: c, Size: size, Procs: 2, Precond: k, MaxIters: 200, ReturnX: true})
			}
		}
	}
	return specs
}

func liveHeap() int64 {
	runtime.GC()
	runtime.GC() // the second empties the sync.Pool victim caches
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// The daemon under sustained and partly hostile load, over real HTTP and
// SSE: hundreds of jobs over forty specs against a budget for about six
// sessions, with cancellations, a burst into a full queue, an upload that
// fails in the build and a spec admission refuses. What must hold: the
// counted session bytes never exceed the budget, the registry never more
// than retainedJobs terminal jobs, the live heap stops growing once both
// are full, and no goroutine outlives the drain. Without eviction the first
// of these fails at the seventh spec.
func TestGatewaySoakBounded(t *testing.T) {
	// Full: two legs of 400 jobs, so that the registry (256) is full at the
	// first reading and only a leak can move the second. Short (CI's race
	// step): 120 jobs, every bound but the heap's.
	legs, legJobs := 2, 400
	if testing.Short() {
		legs, legJobs = 1, 120
	}
	specs := soakSpecs()
	budget := 6 * buildSession(t, specs[10]).Bytes() // the middle size
	goroutines := runtime.NumGoroutine()

	const workers, depth, clients = 2, 4, 3
	srv, ts := newTestServer(t, Options{Workers: workers, QueueDepth: depth, SessionBytes: budget})

	// The clients run beside the test's goroutine: they report with
	// t.Error and give up their job, never t.Fatal.
	submit := func(tenant string, spec *Spec) (id string, code int) {
		resp, err := post(ts, tenant, spec)
		if err != nil {
			t.Error(err)
			return "", 0
		}
		defer resp.Body.Close()
		var reply struct {
			ID string `json:"id"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
			t.Error(err)
		}
		return reply.ID, resp.StatusCode
	}
	// stream follows the job's events to the end and returns its last state.
	stream := func(id string) (final State) {
		events, err := readEvents(ts, id)
		if err != nil {
			t.Errorf("job %s: %v", id, err)
		}
		for _, e := range events {
			if e.Type == "state" {
				final = e.State
			}
		}
		return final
	}
	var done, canceled, rejected atomic.Int64
	// finished checks the bounds, after every job.
	finished := func(id string, final State) {
		n := done.Add(1)
		if !final.Terminal() {
			t.Errorf("job %s: stream ended in state %q", id, final)
		}
		st := srv.sessions.stats()
		if st.Bytes > st.Budget || st.Budget != budget {
			t.Errorf("after %d jobs: %d session bytes counted, budget %d", n, st.Bytes, st.Budget)
		}
		srv.mu.Lock()
		registry, retained := len(srv.jobs), len(srv.retired)
		srv.mu.Unlock()
		if inFlight := workers + (clients+1)*depth; retained > retainedJobs || registry > retainedJobs+inFlight {
			t.Errorf("after %d jobs: %d terminal jobs retained, %d jobs in the registry", n, retained, registry)
		}
	}

	// cancelJob returns the status of the job's DELETE, 0 if it failed.
	cancelJob := func(id string) int {
		req, _ := http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+id, nil)
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Error(err)
			return 0
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	// client runs jobs until the leg's limit. It cancels every ninth job,
	// in the queue or mid-solve as it happens, and the leg's first one,
	// which it posts while the burst holds both workers and so meets in
	// the queue; first is told once that one is posted and canceled.
	var next atomic.Int64
	client := func(tenant string, start, limit int64, first *sync.WaitGroup) {
		for i := next.Add(1) - 1; i < limit; i = next.Add(1) - 1 {
			k := i / 2 * 7 % int64(len(specs)) // every spec in turn …
			if i%2 == 0 {
				k = i / 2 % 4 // … and every other job on one of four hot ones
			}
			id, code := submit(tenant, specs[k])
			if code == http.StatusAccepted && (i%9 == 4 || i == start) && cancelJob(id) == http.StatusAccepted {
				canceled.Add(1)
			}
			if i == start {
				first.Done()
			}
			if code != http.StatusAccepted {
				t.Errorf("job %d: POST status %d", i, code)
				return
			}
			finished(id, stream(id))
		}
	}

	heap := make([]int64, 0, legs)
	for leg := 1; leg <= legs; leg++ {
		// From a fourth tenant, first: a solve on every worker that does
		// not converge, held until the clients' first job and the burst
		// below are posted, or with one CPU the workers drain the queue
		// between two POSTs. Its
		// iterations are slow and few: the cap, about a second's work,
		// bounds a run whose DELETE fails, and the canceled job's result
		// keeps one residual per iteration, which the registry counts
		// against its quarter of the budget. The holds' cancellations are
		// not counted. Every burst job is streamed as soon as it is
		// accepted: the clients keep retiring jobs, and one read only after
		// the whole burst can have left the registry (404).
		var burst sync.WaitGroup
		follow := func(id string) {
			burst.Add(1)
			go func() {
				defer burst.Done()
				finished(id, stream(id))
			}()
		}
		hold := &Spec{Case: "tc1-poisson2d", Size: 21, Procs: 8, Precond: "None", Tol: 1e-300, MaxIters: 1 << 13}
		var held []*Job
		for w := 0; w < workers; w++ {
			id, code := submit("burst", hold)
			if code != http.StatusAccepted {
				t.Errorf("hold: POST status %d", code)
				continue
			}
			follow(id)
			srv.mu.Lock()
			held = append(held, srv.jobs[id])
			srv.mu.Unlock()
		}
		waitFor(t, func() bool {
			for _, j := range held {
				if j.State() != StateRunning {
					return false
				}
			}
			return true
		})

		var wg, first sync.WaitGroup
		first.Add(1)
		start := next.Load()
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				client(fmt.Sprintf("client%d", c), start, int64(leg*legJobs), &first)
			}(c)
		}
		// Meanwhile the burst into its queue of four, kept up until one
		// POST has met it full …
		for i := 0; i < 4*depth || (rejected.Load() == 0 && i < 64*depth); i++ {
			switch id, code := submit("burst", specs[i%len(specs)]); code {
			case http.StatusAccepted:
				follow(id)
			case http.StatusTooManyRequests:
				rejected.Add(1)
			default:
				t.Errorf("burst: POST status %d", code)
			}
		}
		first.Wait()
		for _, j := range held {
			if code := cancelJob(j.ID); code != http.StatusAccepted {
				t.Errorf("hold %s: DELETE status %d, want 202", j.ID, code)
			}
		}
		burst.Wait()
		// … an upload that passes admission and fails in the build, and a
		// spec that admission refuses.
		id, code := submit("burst", &Spec{Matrix: "%%MatrixMarket matrix coordinate real general\n2 2 1\n5 5 1.0\n", Procs: 1})
		if final := stream(id); code != http.StatusAccepted || final != StateFailed {
			t.Errorf("bad upload: POST status %d, final state %q; want 202 and failed", code, final)
		}
		if _, code := submit("burst", &Spec{Case: "tc1-poisson2d", Size: 129}); code != http.StatusBadRequest {
			t.Errorf("a spec beyond the budget: POST status %d, want 400", code)
		}
		wg.Wait()
		heap = append(heap, liveHeap())
	}

	st := srv.sessions.stats()
	t.Logf("%d jobs, %d canceled, %d answered 429; cache %+v; live heap after each leg %v",
		done.Load(), canceled.Load(), rejected.Load(), st, heap)
	if done.Load() < int64(legs*legJobs) || canceled.Load() == 0 || rejected.Load() == 0 {
		t.Errorf("not the load intended: %d jobs, %d canceled, %d answered 429", done.Load(), canceled.Load(), rejected.Load())
	}
	if st.Evictions == 0 || st.Sessions > 12 {
		t.Errorf("cache %+v: want evictions, and about six sessions kept", st)
	}
	if n := len(heap); n > 1 && heap[n-1] > heap[0]+heap[0]/10 {
		t.Errorf("live heap %d after %d jobs, %d after %d: still growing", heap[0], legJobs, heap[n-1], legs*legJobs)
	}

	ts.Close()
	ts.Client().CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	// Connection goroutines end on their own time after Close.
	waitFor(t, func() bool { return runtime.NumGoroutine() <= goroutines })
}
