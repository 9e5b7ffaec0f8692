package gateway

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"parapre/internal/bench"
	"parapre/internal/cases"
	"parapre/internal/ckpt"
	"parapre/internal/core"
	"parapre/internal/paranoid"
	"parapre/internal/precond"
)

// post submits the spec for the tenant. It reports no failure itself, so
// that client goroutines beside the test's own can use it too.
func post(ts *httptest.Server, tenant string, spec *Spec) (*http.Response, error) {
	body, _ := json.Marshal(spec)
	req, _ := http.NewRequest("POST", ts.URL+"/v1/jobs", bytes.NewReader(body))
	req.Header.Set("X-Tenant", tenant)
	return ts.Client().Do(req)
}

func postJob(t *testing.T, ts *httptest.Server, tenant string, spec *Spec) *http.Response {
	t.Helper()
	resp, err := post(ts, tenant, spec)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func submitOK(t *testing.T, ts *httptest.Server, tenant string, spec *Spec) string {
	t.Helper()
	resp := postJob(t, ts, tenant, spec)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		b, _ := readAll(resp)
		t.Fatalf("submit: %d %s", resp.StatusCode, b)
	}
	var out struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.ID
}

func readAll(resp *http.Response) (string, error) {
	var sb strings.Builder
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		sb.WriteString(sc.Text())
	}
	return sb.String(), sc.Err()
}

// readEvents consumes the job's SSE stream to completion and returns every
// decoded event; like post, it leaves the reporting to its caller.
func readEvents(ts *httptest.Server, id string) ([]Event, error) {
	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("events: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		return nil, fmt.Errorf("Content-Type = %q", ct)
	}
	var events []Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Text()
		if data, ok := strings.CutPrefix(line, "data: "); ok {
			var e Event
			if err := json.Unmarshal([]byte(data), &e); err != nil {
				return events, fmt.Errorf("bad SSE data %q: %v", data, err)
			}
			events = append(events, e)
		}
	}
	return events, sc.Err()
}

// streamEvents is readEvents for the test's own goroutine.
func streamEvents(t *testing.T, ts *httptest.Server, id string) []Event {
	t.Helper()
	events, err := readEvents(ts, id)
	if err != nil {
		t.Fatal(err)
	}
	return events
}

func newTestServer(t *testing.T, opt Options) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Drain(ctx)
	})
	return srv, ts
}

// slowSpec is a solve that runs for many seconds if left alone (plain
// GMRES(20), no preconditioner, stagnating on a size-129 Poisson) but is
// bounded by MaxIters — cancel/backpressure tests race nothing. Size 65
// is not enough: that system converges in well under a second of wall
// time, so a poll for StateRunning could miss the whole solve.
func slowSpec() *Spec {
	return &Spec{Case: "tc1-poisson2d", Size: 129, Procs: 4,
		Precond: "None", Tol: 1e-13, MaxIters: 50000}
}

// The service answer must be the library answer: same iterations, same
// converged flag, and a streamed residual sequence bit-identical to the
// History of a direct core.Solve.
func TestE2EResultMatchesDirectSolve(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2, QueueDepth: 4})
	spec := &Spec{Case: "tc1-poisson2d", Size: 33, Procs: 4, Precond: "Block 2"}
	id := submitOK(t, ts, "alice", spec)
	events := streamEvents(t, ts, id)

	var result *ResultSummary
	var streamed []float64
	for _, e := range events {
		switch e.Type {
		case "residual":
			if e.Iter != len(streamed) {
				t.Fatalf("residual iter %d out of order (have %d)", e.Iter, len(streamed))
			}
			streamed = append(streamed, e.Residual)
		case "result":
			result = e.Result
		}
	}
	if result == nil {
		t.Fatal("no result event")
	}
	if !result.Converged {
		t.Fatalf("gateway solve did not converge: %+v", result)
	}
	if len(result.Phases) == 0 {
		t.Error("result carries no phase breakdown")
	}

	// Direct library solves with the identical configuration: the gateway
	// wraps a core.Session, so a direct session solve must match
	// bit-for-bit; the one-shot core.Solve shares the identical residual
	// recurrence (its SolveTime differs in the last bits only because it
	// charges preconditioner set-up to the same clocks and subtracts it).
	c, err := cases.ByName(spec.Case)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := core.Solve(c.Build(spec.Size), spec.BuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	sess, err := core.NewSession(c.Build(spec.Size), spec.BuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	dsess, err := sess.Solve(nil)
	if err != nil {
		t.Fatal(err)
	}
	if result.Iterations != direct.Iterations || result.Converged != direct.Converged {
		t.Fatalf("gateway %d iters, direct %d", result.Iterations, direct.Iterations)
	}
	if result.SolveTime != dsess.SolveTime {
		t.Errorf("modeled SolveTime %v vs session %v", result.SolveTime, dsess.SolveTime)
	}
	if len(streamed) != len(direct.History) {
		t.Fatalf("streamed %d residuals, direct history %d", len(streamed), len(direct.History))
	}
	for i := range streamed {
		if streamed[i] != direct.History[i] {
			t.Fatalf("residual[%d]: streamed %v, direct %v", i, streamed[i], direct.History[i])
		}
	}
}

// DELETE on a running job lands as a collective stop vote: the solve
// ends promptly with the cancellation sentinel, not at MaxIters.
func TestE2ECancelRunningJob(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 2})
	id := submitOK(t, ts, "alice", slowSpec())

	// Wait until the job is demonstrably iterating.
	waitFor(t, func() bool {
		resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		var st struct {
			State State `json:"state"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&st)
		return st.State == StateRunning
	})

	canceledAt := time.Now()
	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+id, nil)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel: %d", resp.StatusCode)
	}

	events := streamEvents(t, ts, id)
	var result *ResultSummary
	for _, e := range events {
		if e.Type == "result" {
			result = e.Result
		}
	}
	if result == nil {
		t.Fatal("no result after cancel")
	}
	if !result.Canceled {
		t.Fatalf("result not canceled: %+v", result)
	}
	if result.Iterations >= 50000 {
		t.Fatal("job ran to MaxIters despite cancel")
	}
	if el := time.Since(canceledAt); el > 15*time.Second {
		t.Fatalf("cancel took %v", el)
	}
}

// A full tenant queue answers 429 with Retry-After while other tenants
// keep their own admission budget.
func TestE2EQueueFull429(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 1})
	running := submitOK(t, ts, "alice", slowSpec()) // occupies the worker
	queued := submitOK(t, ts, "alice", slowSpec())  // fills alice's queue

	resp := postJob(t, ts, "alice", slowSpec())
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit: %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	resp.Body.Close()

	// Bob's queue is independent.
	bob := submitOK(t, ts, "bob", slowSpec())

	// Unwind: cancel everything so the drain in cleanup is quick.
	for _, id := range []string{queued, bob, running} {
		req, _ := http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+id, nil)
		if resp, err := ts.Client().Do(req); err == nil {
			resp.Body.Close()
		}
	}
}

// Drain finishes accepted jobs and refuses new ones — the SIGTERM path
// of cmd/parapred.
func TestE2EDrain(t *testing.T) {
	srv, ts := newTestServer(t, Options{Workers: 2, QueueDepth: 4})
	spec := &Spec{Case: "tc1-poisson2d", Size: 33, Procs: 4, Precond: "Block 1"}
	id := submitOK(t, ts, "alice", spec)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	j, ok := srv.Job(id)
	if !ok || j.State() != StateDone {
		t.Fatalf("accepted job not finished by drain: %v", j.State())
	}
	resp := postJob(t, ts, "alice", spec)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain submit: %d, want 503", resp.StatusCode)
	}
	resp.Body.Close()
}

// Bad specs are rejected up front with 400; a preconditioner that is not
// a kind — Block ARMS, since it was removed — gets the list of those that
// are.
func TestE2EBadSpec(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 1})
	for _, spec := range []*Spec{
		{},                     // neither case nor matrix
		{Case: "no-such-case"}, // unknown case
		{Case: "tc1-poisson2d", Procs: -1},
		{Case: "tc1-poisson2d", Precond: "Block 9"},
		{Case: "tc1-poisson2d", Precond: "Block ARMS"},
		{Case: "tc1-poisson2d", Machine: "Cray"},
	} {
		resp := postJob(t, ts, "alice", spec)
		body, _ := readAll(resp)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("spec %+v: %d, want 400", spec, resp.StatusCode)
		}
		if spec.Precond == "" {
			continue
		}
		for _, k := range precond.Kinds() {
			if !strings.Contains(body, string(k)) {
				t.Errorf("spec %+v: body %q does not list %q", spec, body, k)
			}
		}
	}
}

// An inline MatrixMarket upload solves like a named case.
func TestE2EMatrixUpload(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 2})
	// A small SPD tridiagonal system in MatrixMarket coordinate form.
	n := 50
	var mm strings.Builder
	mm.WriteString("%%MatrixMarket matrix coordinate real general\n")
	fmt.Fprintf(&mm, "%d %d %d\n", n, n, 3*n-2)
	for i := 1; i <= n; i++ {
		fmt.Fprintf(&mm, "%d %d 2.0\n", i, i)
		if i < n {
			fmt.Fprintf(&mm, "%d %d -1.0\n", i, i+1)
			fmt.Fprintf(&mm, "%d %d -1.0\n", i+1, i)
		}
	}
	spec := &Spec{Matrix: mm.String(), Procs: 2, Precond: "Block 1", ReturnX: true}
	id := submitOK(t, ts, "alice", spec)
	events := streamEvents(t, ts, id)
	var result *ResultSummary
	for _, e := range events {
		if e.Type == "result" {
			result = e.Result
		}
	}
	if result == nil || !result.Converged {
		t.Fatalf("upload solve: %+v", result)
	}
	// Default RHS is A·1, so the solution is 1.
	if len(result.X) != n {
		t.Fatalf("len(X) = %d", len(result.X))
	}
	for i, x := range result.X {
		if x < 0.99 || x > 1.01 {
			t.Fatalf("x[%d] = %v, want ~1", i, x)
		}
	}
}

// A checkpointed job killed mid-solve resumes on the next server start
// under the same job ID and finishes from the persisted recurrence.
func TestE2EKillAndResume(t *testing.T) {
	dir := t.TempDir()
	spec := &Spec{Case: "tc1-poisson2d", Size: 33, Procs: 4, Precond: "Block 1",
		CheckpointEvery: 5}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}

	// Fake the killed predecessor: run the solve directly with the same
	// session configuration, canceling after the first checkpoint lands,
	// and leave checkpoint + sidecar in the directory.
	const id = "deadbeef00000000"
	ckFile := filepath.Join(dir, id+".ckpt")
	scFile := filepath.Join(dir, id+".json")
	c, err := cases.ByName(spec.Case)
	if err != nil {
		t.Fatal(err)
	}
	prob := c.Build(spec.Size)
	cfg := spec.BuildConfig()
	cfg.CheckpointEvery = spec.CheckpointEvery
	cfg.CheckpointPath = ckFile
	ctx, cancel := context.WithCancel(context.Background())
	cfg.Ctx = ctx
	cfg.Solver.Progress = func(iter int, _ float64) {
		if iter >= 7 { // past the iteration-5 checkpoint
			cancel()
		}
	}
	partial, err := core.Solve(prob, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if partial.Converged {
		t.Skip("solve converged before the first checkpoint; nothing to resume")
	}
	if _, err := os.Stat(ckFile); err != nil {
		t.Fatalf("no checkpoint written: %v", err)
	}
	side, _ := json.Marshal(&persistedSpec{Tenant: "alice", Spec: spec})
	if err := os.WriteFile(scFile, side, 0o644); err != nil {
		t.Fatal(err)
	}
	ck, err := ckpt.Load(ckFile)
	if err != nil {
		t.Fatal(err)
	}
	resumeIter := ck.Iter

	// "Restart" the server over the same directory: the scan re-enqueues
	// the job with the checkpoint.
	srv, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4, CkptDir: dir})
	j, ok := srv.Job(id)
	if !ok {
		t.Fatal("resumed job not registered under its old ID")
	}
	events := streamEvents(t, ts, id)
	var result *ResultSummary
	sawResume := false
	for _, e := range events {
		if e.Type == "recovery" && e.Stage == "resume" {
			sawResume = e.Recovered
		}
		if e.Type == "result" {
			result = e.Result
		}
	}
	if !sawResume {
		t.Error("no resume recovery event")
	}
	if result == nil || !result.Converged {
		t.Fatalf("resumed solve: %+v", result)
	}
	// The resumed solve continued from the checkpoint, not from zero: the
	// direct full solve takes more iterations than the resumed leg ran.
	full, err := core.Solve(c.Build(spec.Size), spec.BuildConfig())
	if err != nil {
		t.Fatal(err)
	}
	if result.Iterations >= full.Iterations+int(resumeIter) {
		t.Errorf("resumed job iterated %d (full solve %d, checkpoint at %d): no progress reuse",
			result.Iterations, full.Iterations, resumeIter)
	}
	if j.State() != StateDone {
		t.Fatalf("state = %s", j.State())
	}
	// Terminal jobs clean their durable state once the worker retires them.
	drain(t, srv)
	if _, err := os.Stat(ckFile); !os.IsNotExist(err) {
		t.Error("checkpoint not removed after completion")
	}
	if _, err := os.Stat(scFile); !os.IsNotExist(err) {
		t.Error("sidecar not removed after completion")
	}
}

// A sidecar whose spec no longer validates — here one naming the removed
// Block ARMS — is dropped by the resume scan together with its checkpoint,
// and no job is registered for it. Nor does the scan keep what nothing would
// read: a checkpoint without a sidecar, or the temp file of a checkpoint
// write killed before its rename.
func TestResumeScanDropsInvalidSidecarAndCheckpoint(t *testing.T) {
	dir := t.TempDir()
	const id = "7-deadbeef"
	scFile, ckFile := filepath.Join(dir, id+".json"), filepath.Join(dir, id+".ckpt")
	orphan, temp := filepath.Join(dir, "8-cafef00d.ckpt"), filepath.Join(dir, ".ckpt-123456")
	if err := os.WriteFile(scFile, []byte(`{"spec":{"case":"tc1-poisson2d","precond":"Block ARMS"}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{ckFile, orphan, temp} {
		if err := os.WriteFile(f, []byte("checkpoint"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	srv, _ := newTestServer(t, Options{Workers: 1, QueueDepth: 1, CkptDir: dir})
	for _, f := range []string{scFile, ckFile, orphan, temp} {
		if _, err := os.Stat(f); !os.IsNotExist(err) {
			t.Errorf("%s left behind by the resume scan (stat: %v)", filepath.Base(f), err)
		}
	}
	if _, ok := srv.Job(id); ok {
		t.Error("a job was registered for a sidecar that does not validate")
	}
	srv.mu.Lock()
	n := len(srv.jobs)
	srv.mu.Unlock()
	if n != 0 {
		t.Errorf("%d jobs registered, want 0", n)
	}
}

// A job whose solve fails is terminal like one that finishes: its sidecar
// and checkpoint go, and the next start does not run it again. Here the
// checkpoint holds 4 ranks and the sidecar asks for 2.
func TestFailedJobLeavesNoDurableState(t *testing.T) {
	dir := t.TempDir()
	const id = "3-0123456789abcdef"
	ckFile, scFile := filepath.Join(dir, id+".ckpt"), filepath.Join(dir, id+".json")
	c, err := cases.ByName("tc1-poisson2d")
	if err != nil {
		t.Fatal(err)
	}
	prob := c.Build(17)
	cfg := core.DefaultConfig(4, precond.KindBlock1)
	cfg.CheckpointEvery, cfg.CheckpointPath = 2, ckFile
	if _, err := core.Solve(prob, cfg); err != nil {
		t.Fatal(err)
	}
	side, _ := json.Marshal(&persistedSpec{Tenant: "alice", Spec: &Spec{Case: "tc1-poisson2d", Size: 17,
		Procs: 2, Precond: "Block 1", CheckpointEvery: 2}})
	if err := os.WriteFile(scFile, side, 0o644); err != nil {
		t.Fatal(err)
	}

	srv, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 1, CkptDir: dir})
	if _, ok := srv.Job(id); !ok {
		t.Fatal("the job was not resumed")
	}
	var failed string
	for _, e := range streamEvents(t, ts, id) {
		if e.Type == "error" {
			failed = e.Error
		}
	}
	if !strings.Contains(failed, "checkpoint holds 4 ranks, config wants P=2") {
		t.Errorf("job error %q, want the checkpoint's world size refused", failed)
	}
	drain(t, srv)
	for _, f := range []string{scFile, ckFile} {
		if _, err := os.Stat(f); !os.IsNotExist(err) {
			t.Errorf("%s left behind by the failed job (stat: %v)", filepath.Base(f), err)
		}
	}

	again, _ := newTestServer(t, Options{Workers: 1, QueueDepth: 1, CkptDir: dir})
	again.mu.Lock()
	n := len(again.jobs)
	again.mu.Unlock()
	if n != 0 {
		t.Errorf("the next start registered %d jobs, want 0", n)
	}
}

// drain waits until the server's workers have retired every job.
func drain(t *testing.T, srv *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}

// getJSON GETs path and decodes the JSON body into out.
func getJSON(t *testing.T, ts *httptest.Server, path string, out any) int {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	return resp.StatusCode
}

// A solve that breaks down on a NaN still reaches its client: Block IC under
// CG on the convection case (not SPD) leaves Residual NaN, and the result
// event and the job's status must carry it as a decodable, unconverged
// result with the breakdown in err — not end the stream without a result,
// nor answer 200 with an empty body.
func TestE2ENaNResultReachesClient(t *testing.T) {
	nan := math.NaN()
	sum := summarize(&core.Result{Residual: nan, TrueRelRes: math.Inf(1), History: []float64{1, 0.5, nan},
		X: []float64{1, nan}, Err: errors.New("breakdown")})
	if _, err := json.Marshal(sum); err != nil {
		t.Fatalf("summary of a NaN result: %v", err)
	}
	if len(sum.History) != 2 || sum.X != nil || sum.Err != "breakdown" {
		t.Errorf("summary history %v, x %v, err %q; want the finite prefix, no x, the error", sum.History, sum.X, sum.Err)
	}
	if paranoid.Enabled {
		t.Skip("paranoid build panics on the NaN inside CG before a result exists")
	}

	_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 1})
	id := submitOK(t, ts, "alice", &Spec{Case: "tc5-convdiff", Precond: "Block IC", UseCG: true})
	var results []*ResultSummary
	for _, e := range streamEvents(t, ts, id) {
		if e.Type == "result" {
			results = append(results, e.Result)
		}
	}
	if len(results) != 1 || results[0] == nil {
		t.Fatalf("%d result events, want one", len(results))
	}
	if r := results[0]; r.Converged || r.Err == "" {
		t.Errorf("result event: converged %v, err %q; want an unconverged result with its error", r.Converged, r.Err)
	}
	var status struct {
		State  State          `json:"state"`
		Result *ResultSummary `json:"result"`
	}
	if code := getJSON(t, ts, "/v1/jobs/"+id, &status); code != http.StatusOK || status.State != StateDone || status.Result == nil {
		t.Fatalf("GET job: %d, state %q, result %v", code, status.State, status.Result)
	}
}

// Admission happens on the spec's size alone, before anything is allocated
// for it: a system whose session could not fit the budget, a size its case
// cannot be built at, more processors than unknowns and an upload whose
// size line cannot be true are 400s; every table of the paper at its
// committed size passes under the default budget.
func TestAdmissionBeforeAllocation(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 1})
	const banner = "%%MatrixMarket matrix coordinate real general\n"
	for _, tc := range []struct {
		spec Spec
		want string
	}{
		{Spec{Case: "tc2-poisson3d", Size: 400}, "exceed the session budget"}, // 64,000,000 unknowns
		{Spec{Case: "tc1-poisson2d", Size: 1 << 40}, "exceed the session budget"},
		{Spec{Case: "tc1-poisson2d", Size: 1}, "cannot be built at size 1"},
		{Spec{Case: "tc3-unstructured", Size: 7}, "cannot be built at size 7"},
		{Spec{Case: "tc1-poisson2d", Size: 4, Procs: 20}, "procs = 20 for 16 unknowns"},
		{Spec{Matrix: banner + "3 3 1\n1 1 1.0\n"}, "procs = 4 for 3 unknowns"},
		{Spec{Matrix: banner + "2 3 1\n1 1 1.0\n"}, "want square"},
		{Spec{Matrix: banner + "1000 1000 200000000\n1 1 1.0\n"}, "declares 200000000 entries"},
		{Spec{Matrix: banner + "16000000 16000000 1\n1 1 1.0\n"}, "exceed the session budget"},
		{Spec{Matrix: "not a matrix"}, "malformed banner"},
	} {
		start := time.Now()
		resp := postJob(t, ts, "alice", &tc.spec)
		body, _ := readAll(resp)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(body, tc.want) {
			t.Errorf("%+v: %d %s; want 400 with %q", tc.spec, resp.StatusCode, body, tc.want)
		}
		if el := time.Since(start); el > time.Second {
			t.Errorf("%+v: refused after %v: something was built first", tc.spec, el)
		}
	}

	for _, e := range bench.Experiments() {
		spec := &Spec{Case: e.CaseName, Size: e.Size, Procs: e.Ps[len(e.Ps)-1]}
		if err := spec.Validate(); err != nil {
			t.Fatal(err)
		}
		if err := spec.admit(256 << 20); err != nil {
			t.Errorf("experiment %s: %v", e.ID, err)
		}
	}
}

// Terminal jobs leave the registry, oldest first, once there are more than
// retainedJobs of them; a job in the queue or on a worker never does. An
// expired id is told apart from one that never existed.
func TestTerminalJobsExpire(t *testing.T) {
	srv, ts := newTestServer(t, Options{Workers: 2, QueueDepth: 8})
	spec := func() *Spec { return &Spec{Case: "tc1-poisson2d", Size: 5, Procs: 1, Precond: "Block 1"} }
	const total = 600
	ids := make([]string, 0, total)
	for len(ids) < total {
		j, err := srv.Submit(fmt.Sprintf("tenant%d", len(ids)%4), spec())
		var full *ErrQueueFull
		if errors.As(err, &full) {
			time.Sleep(time.Millisecond)
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
		if len(ids)%7 == 0 {
			j.Cancel() // in the queue or on a worker: terminal either way
		}
		pending, active := srv.sched.Stats()
		srv.mu.Lock()
		n := len(srv.jobs)
		srv.mu.Unlock()
		if n > retainedJobs+pending+active {
			t.Fatalf("after %d jobs: %d in the registry, %d pending, %d active", len(ids), n, pending, active)
		}
	}
	waitFor(t, func() bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return len(srv.retired) == retainedJobs && len(srv.jobs) == retainedJobs
	})

	var reply struct {
		Error string `json:"error"`
		State State  `json:"state"`
	}
	if code := getJSON(t, ts, "/v1/jobs/"+ids[0], &reply); code != http.StatusNotFound || reply.Error != "expired" {
		t.Errorf("oldest job: %d %+v, want 404 expired", code, reply)
	}
	if code := getJSON(t, ts, "/v1/jobs/"+ids[0]+"/events", &reply); code != http.StatusNotFound || reply.Error != "expired" {
		t.Errorf("oldest job's events: %d %+v, want 404 expired", code, reply)
	}
	if code := getJSON(t, ts, "/v1/jobs/"+ids[total-1], &reply); code != http.StatusOK || !reply.State.Terminal() {
		t.Errorf("newest job: %d %+v, want 200 and a terminal state", code, reply)
	}
	// A number is spent on a submission the queue then refuses, so the
	// highest one handed out is somewhat above total.
	for _, id := range []string{"100000-0123456789abcdef", "0123456789abcdef", "0-0123456789abcdef"} {
		reply.Error = ""
		if code := getJSON(t, ts, "/v1/jobs/"+id, &reply); code != http.StatusNotFound || reply.Error != "no such job" {
			t.Errorf("id %s, never issued: %d %+v, want 404 no such job", id, code, reply)
		}
	}
}

// What the registry retains is bounded in bytes too: with a small session
// budget, many return_x jobs leave results that together hold at most a
// quarter of it, while the newest job stays answerable and a stream opened
// on a job that has since expired still ends with its result. Kept by count
// alone, the 120 results below held about four times the bound.
func TestRetainedResultsBounded(t *testing.T) {
	const budget = 512 << 10
	srv, ts := newTestServer(t, Options{Workers: 2, QueueDepth: 8, SessionBytes: budget})
	spec := func() *Spec {
		return &Spec{Case: "tc1-poisson2d", Size: 17, Procs: 2, Precond: "Block 1", ReturnX: true}
	}
	first := submitOK(t, ts, "tenant0", spec())
	stream, err := ts.Client().Get(ts.URL + "/v1/jobs/" + first + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	if stream.StatusCode != http.StatusOK {
		t.Fatalf("events of the first job: %d", stream.StatusCode)
	}
	const total = 120
	var last *Job
	for n := 1; n < total; {
		j, err := srv.Submit(fmt.Sprintf("tenant%d", n%4), spec())
		var full *ErrQueueFull
		if errors.As(err, &full) {
			time.Sleep(time.Millisecond)
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		last = j
		n++
	}
	held := func() (bytes int64, retired int) {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		for _, j := range srv.jobs {
			if r := j.Result(); r != nil && j.State().Terminal() {
				bytes += int64(8 * (cap(r.X) + cap(r.History)))
			}
		}
		return bytes, len(srv.retired)
	}
	waitFor(t, func() bool {
		pending, active := srv.sched.Stats()
		return pending == 0 && active == 0 && last.State().Terminal()
	})
	bytes, retired := held()
	if bytes > budget/4 {
		t.Errorf("the %d terminal jobs retained hold %d bytes of results, more than a quarter of the %d budget", retired, bytes, budget)
	}
	var h map[string]any
	getJSON(t, ts, "/healthz", &h)
	if got, _ := h["retained_bytes"].(float64); int64(got) != bytes {
		t.Errorf("/healthz retained_bytes = %v, want %d", h["retained_bytes"], bytes)
	}
	var reply struct {
		State  State          `json:"state"`
		Result *ResultSummary `json:"result"`
	}
	if code := getJSON(t, ts, "/v1/jobs/"+last.ID, &reply); code != http.StatusOK || reply.Result == nil || len(reply.Result.X) != 17*17 {
		t.Errorf("newest job: %d %+v, want 200 with its solution", code, reply.State)
	}
	if _, ok := srv.Job(first); ok {
		t.Fatal("the first job is still retained: the bound did not bite")
	}
	var events []Event
	sc := bufio.NewScanner(stream.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if data, ok := strings.CutPrefix(sc.Text(), "data: "); ok {
			var e Event
			if err := json.Unmarshal([]byte(data), &e); err != nil {
				t.Fatalf("bad SSE data %q: %v", data, err)
			}
			events = append(events, e)
		}
	}
	if i := slices.IndexFunc(events, func(e Event) bool { return e.Type == "result" }); i < 0 || len(events[i].Result.X) != 17*17 {
		t.Errorf("the stream opened on the first job ended without its result (%d events)", len(events))
	}
}

// /healthz reports the session cache and the registry next to the pool.
func TestHealthzReportsCacheAndRegistry(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, SessionBytes: 1 << 20})
	spec := &Spec{Case: "tc1-poisson2d", Size: 9, Procs: 2, Precond: "Block 1"}
	for i := 0; i < 3; i++ {
		streamEvents(t, ts, submitOK(t, ts, "alice", spec))
	}
	var h map[string]any
	getJSON(t, ts, "/healthz", &h)
	// The last job's worker may not have handed it back yet.
	waitFor(t, func() bool { getJSON(t, ts, "/healthz", &h); return h["jobs_retained"] == 3.0 })
	for key, want := range map[string]float64{
		"sessions": 1, "session_budget": 1 << 20, "session_hits": 2, "session_misses": 1,
		"session_evictions": 0, "jobs_retained": 3, "pending": 0, "active": 0,
	} {
		if h[key] != want {
			t.Errorf("%s = %v, want %v", key, h[key], want)
		}
	}
	if b, _ := h["session_bytes"].(float64); b <= 0 || b > 1<<20 {
		t.Errorf("session_bytes = %v, want within (0, budget]", h["session_bytes"])
	}
}
