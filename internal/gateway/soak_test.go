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

	var next atomic.Int64
	client := func(tenant string, limit int64) {
		for i := next.Add(1) - 1; i < limit; i = next.Add(1) - 1 {
			k := i / 2 * 7 % int64(len(specs)) // every spec in turn …
			if i%2 == 0 {
				k = i / 2 % 4 // … and every other job on one of four hot ones
			}
			id, code := submit(tenant, specs[k])
			if code != http.StatusAccepted {
				t.Errorf("job %d: POST status %d", i, code)
				return
			}
			if i%9 == 4 { // in the queue or mid-solve, as it happens
				req, _ := http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+id, nil)
				if resp, err := ts.Client().Do(req); err == nil {
					resp.Body.Close()
					if resp.StatusCode == http.StatusAccepted {
						canceled.Add(1)
					}
				}
			}
			finished(id, stream(id))
		}
	}

	heap := make([]int64, 0, legs)
	for leg := 1; leg <= legs; leg++ {
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				client(fmt.Sprintf("client%d", c), int64(leg*legJobs))
			}(c)
		}
		// Meanwhile, from a fourth tenant: a burst into its queue of four,
		// kept up until one POST has met it full (on a loaded host the
		// workers can drain it between two POSTs) …
		var burst []string
		for i := 0; i < 4*depth || (rejected.Load() == 0 && i < 64*depth); i++ {
			switch id, code := submit("burst", specs[i%len(specs)]); code {
			case http.StatusAccepted:
				burst = append(burst, id)
			case http.StatusTooManyRequests:
				rejected.Add(1)
			default:
				t.Errorf("burst: POST status %d", code)
			}
		}
		for _, id := range burst {
			finished(id, stream(id))
		}
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
