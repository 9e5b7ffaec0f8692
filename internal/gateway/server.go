package gateway

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"parapre/internal/ckpt"
	"parapre/internal/core"
	"parapre/internal/obs"
)

// Server is the solver-as-a-service gateway: it owns the job registry,
// the per-spec session cache, the scheduler, and (optionally) the
// checkpoint directory that makes jobs survive a kill.
type Server struct {
	sched    *Scheduler
	ckptDir  string
	sessions *sessionCache

	mu       sync.Mutex
	jobs     map[string]*Job
	retired  []retiredJob // the terminal jobs still in jobs, oldest first
	retained int64        // the bytes their results hold
	issued   int64        // jobs numbered so far; a job's id starts with its number
}

// retiredJob is a terminal job still answerable by id and the bytes its
// result holds.
type retiredJob struct {
	id    string
	bytes int64
}

// retainedJobs is how many terminal jobs stay answerable by id: a result
// (with return_x, a solution vector) is kept for the client that was not
// listening when it arrived, not for ever. Their results together hold at
// most a quarter of the session budget besides.
const retainedJobs = 256

// Options configures New.
type Options struct {
	Workers    int    // solver pool size (default 2)
	QueueDepth int    // per-tenant queue capacity (default 8)
	CkptDir    string // non-empty enables checkpoint persistence + resume
	// SessionBytes is the session cache's budget (default 256 MiB): the
	// bytes of built sessions kept for the next job with the same spec.
	SessionBytes int64
}

// New creates a gateway server and recovers any resumable jobs left in
// the checkpoint directory by a previous process.
func New(opt Options) (*Server, error) {
	if opt.Workers == 0 {
		opt.Workers = 2
	}
	if opt.QueueDepth == 0 {
		opt.QueueDepth = 8
	}
	if opt.SessionBytes == 0 {
		opt.SessionBytes = 256 << 20
	}
	if opt.SessionBytes < 0 {
		return nil, fmt.Errorf("gateway: SessionBytes = %d", opt.SessionBytes)
	}
	s := &Server{
		ckptDir:  opt.CkptDir,
		sessions: newSessionCache(opt.SessionBytes),
		jobs:     make(map[string]*Job),
	}
	s.sched = NewScheduler(opt.Workers, opt.QueueDepth, s.runJob)
	s.sched.done = s.retire
	if err := s.resumeScan(); err != nil {
		return nil, err
	}
	return s, nil
}

// Drain stops admission and waits for in-flight jobs (SIGTERM path).
func (s *Server) Drain(ctx context.Context) error { return s.sched.Drain(ctx) }

// Job looks up a job by ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Submit validates and admits the spec, then registers and enqueues a job
// for the tenant.
func (s *Server) Submit(tenant string, spec *Spec) (*Job, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if err := spec.admit(s.sessions.budget); err != nil {
		return nil, err
	}
	j := NewJob(tenant, spec)
	s.mu.Lock()
	s.issued++
	j.ID = strconv.FormatInt(s.issued, 10) + "-" + j.ID
	s.mu.Unlock()
	return j, s.enqueue(j)
}

func (s *Server) enqueue(j *Job) error {
	s.mu.Lock()
	s.jobs[j.ID] = j
	s.mu.Unlock()
	if err := s.sched.Submit(j); err != nil {
		s.mu.Lock()
		delete(s.jobs, j.ID)
		s.mu.Unlock()
		return err
	}
	return nil
}

// retire is the scheduler's last word on a job, run or canceled in the
// queue: it is terminal, so its durable state goes (dropDurable), and the
// oldest terminal jobs leave the registry while there are more than
// retainedJobs of them or, the newest aside, their results hold more than a
// quarter of the session budget. An open event stream holds its *Job and
// ends as it would have; a later GET by id is answered "expired".
func (s *Server) retire(j *Job) {
	s.dropDurable(j.ID)
	j.Spec = nil // read by the worker alone, which is done with it: an upload's is up to 64 MiB of text
	b := j.resultBytes()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.retired = append(s.retired, retiredJob{j.ID, b})
	s.retained += b
	for len(s.retired) > retainedJobs || (len(s.retired) > 1 && s.retained > s.sessions.budget/4) {
		delete(s.jobs, s.retired[0].id)
		s.retained -= s.retired[0].bytes
		s.retired = s.retired[1:]
	}
}

// jobNumber returns the number a job id starts with.
func jobNumber(id string) (int64, bool) {
	num, _, ok := strings.Cut(id, "-")
	n, err := strconv.ParseInt(num, 10, 64)
	return n, ok && err == nil
}

// lookup resolves the request's {id} or answers 404: "expired" for an id
// whose number this server (or the process whose jobs it resumed) has
// handed out — that job existed, its record is gone — and "no such job"
// for anything else.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	id := r.PathValue("id")
	n, numbered := jobNumber(id)
	s.mu.Lock()
	j, ok := s.jobs[id]
	expired := !ok && numbered && n >= 1 && n <= s.issued
	s.mu.Unlock()
	if expired {
		httpError(w, http.StatusNotFound, "expired")
	} else if !ok {
		httpError(w, http.StatusNotFound, "no such job")
	}
	return j, ok
}

// ckptPath returns the job's checkpoint and spec-sidecar paths.
func (s *Server) ckptPath(id string) (ck, spec string) {
	return filepath.Join(s.ckptDir, id+".ckpt"), filepath.Join(s.ckptDir, id+".json")
}

// dropDurable removes a job's sidecar, then its checkpoint. In that order a
// kill between the two leaves a checkpoint without a sidecar, which the
// next resume scan deletes, and never a sidecar that would run the job
// again from scratch.
func (s *Server) dropDurable(id string) {
	if s.ckptDir == "" {
		return
	}
	ckFile, scFile := s.ckptPath(id)
	_ = os.Remove(scFile)
	_ = os.Remove(ckFile)
}

// persistedSpec is the sidecar the resume scan reads: enough to rebuild
// the job exactly.
type persistedSpec struct {
	Tenant string `json:"tenant"`
	Spec   *Spec  `json:"spec"`
}

// resumeScan re-enqueues jobs whose checkpoints a killed predecessor
// left behind: for every sidecar spec with a loadable checkpoint the job
// restarts mid-recurrence; a sidecar without a checkpoint (killed before
// the first snapshot) restarts from scratch. A sidecar whose spec no
// longer validates goes, and its checkpoint with it. So do what nothing
// would ever read: a checkpoint without a sidecar, and the temp files of a
// checkpoint write that was killed before its rename (ckpt.WriteFile). They
// go before any job is enqueued, since a resumed job writes temp files too.
func (s *Server) resumeScan() error {
	if s.ckptDir == "" {
		return nil
	}
	if err := os.MkdirAll(s.ckptDir, 0o755); err != nil {
		return err
	}
	stale, _ := filepath.Glob(filepath.Join(s.ckptDir, ".ckpt-*"))
	ckpts, _ := filepath.Glob(filepath.Join(s.ckptDir, "*.ckpt"))
	for _, f := range ckpts {
		if _, err := os.Stat(strings.TrimSuffix(f, ".ckpt") + ".json"); os.IsNotExist(err) {
			stale = append(stale, f)
		}
	}
	for _, f := range stale {
		_ = os.Remove(f)
	}
	sidecars, err := filepath.Glob(filepath.Join(s.ckptDir, "*.json"))
	if err != nil {
		return err
	}
	sort.Strings(sidecars)
	for _, sc := range sidecars {
		data, err := os.ReadFile(sc)
		if err != nil {
			continue
		}
		id := strings.TrimSuffix(filepath.Base(sc), ".json")
		var ps persistedSpec
		if json.Unmarshal(data, &ps) != nil || ps.Spec == nil || ps.Spec.Validate() != nil {
			s.dropDurable(id)
			continue
		}
		j := NewJob(ps.Tenant, ps.Spec)
		j.ID = id // keep the identity clients hold
		if n, ok := jobNumber(id); ok && n > s.issued {
			s.issued = n // no new job repeats the number, and the id expires like ours
		}
		ckFile, _ := s.ckptPath(id)
		if ck, err := ckpt.Load(ckFile); err == nil {
			j.Restore = ck
		}
		j.Publish(Event{Type: "recovery", Stage: "resume", Recovered: j.Restore != nil})
		if err := s.enqueue(j); err != nil {
			return fmt.Errorf("gateway: resume %s: %w", id, err)
		}
	}
	return nil
}

// runJob executes one job on a worker: session lookup, live event
// wiring, the solve itself, result projection. retire cleans up the
// checkpoint whatever the outcome.
func (s *Server) runJob(ctx context.Context, j *Job) {
	sess, err := s.sessions.get(j.Spec.SessionKey(), j.Spec.build())
	if err != nil {
		j.Fail(err)
		return
	}

	coll := obs.NewCollector()
	streamAll := j.Spec.StreamSpans
	coll.SetLiveSink(func(e obs.Event) {
		// Attempt spans are rare and newsworthy (the resilience ladder in
		// action); everything else is per-iteration noise unless the
		// client opted into the firehose.
		if streamAll || e.Kind == obs.KindAttempt {
			ev := e
			j.Publish(Event{Type: "span", Span: &ev})
		}
	})

	// Every rank reports every iteration; publish each once, and none that
	// JSON has no number for (a breakdown's NaN: the result reports it).
	var pmu sync.Mutex
	seen := -1
	progress := func(iter int, resid float64) {
		pmu.Lock()
		fresh := iter > seen
		if fresh {
			seen = iter
		}
		pmu.Unlock()
		if fresh && !notFinite(resid) {
			j.Publish(Event{Type: "residual", Iter: iter, Residual: resid})
		}
	}

	opts := core.SolveOptions{
		Ctx:       ctx,
		Collector: coll,
		Progress:  progress,
		Restore:   j.Restore,
	}
	if s.ckptDir != "" && j.Spec.CheckpointEvery > 0 {
		ckFile, scFile := s.ckptPath(j.ID)
		if data, err := json.Marshal(&persistedSpec{Tenant: j.Tenant, Spec: j.Spec}); err == nil {
			_ = os.WriteFile(scFile, data, 0o644)
		}
		opts.CheckpointEvery = j.Spec.CheckpointEvery
		opts.CheckpointPath = ckFile
	}

	res, err := sess.SolveWith(nil, opts)
	if err != nil {
		j.Fail(err)
		return
	}
	sum := summarize(res)
	if res.Recovery != nil {
		for _, st := range res.Recovery.Steps {
			ev := Event{Type: "recovery", Stage: st.Stage, Attempt: st.Attempt,
				Recovered: st.Converged, Iter: st.Iterations}
			if st.Err != nil {
				ev.Error = st.Err.Error()
			}
			j.Publish(ev)
		}
	}
	j.Finish(sum)
}

// Handler returns the HTTP API:
//
//	POST   /v1/jobs          submit (X-Tenant header; 202, 400, 429)
//	GET    /v1/jobs/{id}        status + result
//	GET    /v1/jobs/{id}/events SSE event stream (replay + live)
//	DELETE /v1/jobs/{id}        cancel
//	GET    /healthz             liveness, pool, session cache and registry counters
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	return mux
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	tenant := r.Header.Get("X-Tenant")
	if tenant == "" {
		tenant = "default"
	}
	var spec Spec
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<20)).Decode(&spec); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("bad spec: %v", err))
		return
	}
	j, err := s.Submit(tenant, &spec)
	if err != nil {
		var full *ErrQueueFull
		switch {
		case errors.As(err, &full):
			w.Header().Set("Retry-After", strconv.Itoa(full.RetryAfter))
			httpError(w, http.StatusTooManyRequests, err.Error())
		case err == ErrDraining:
			w.Header().Set("Retry-After", "30")
			httpError(w, http.StatusServiceUnavailable, err.Error())
		default:
			httpError(w, http.StatusBadRequest, err.Error())
		}
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+j.ID)
	writeJSON(w, http.StatusAccepted, map[string]any{"id": j.ID, "state": j.State()})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"id":     j.ID,
		"tenant": j.Tenant,
		"state":  j.State(),
		"result": j.Result(),
	})
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	if !j.Cancel() {
		httpError(w, http.StatusConflict, "job already finished")
		return
	}
	w.WriteHeader(http.StatusAccepted)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	pending, active := s.sched.Stats()
	c := s.sessions.stats()
	s.mu.Lock()
	retained, retainedBytes := len(s.retired), s.retained
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"ok": true, "pending": pending, "active": active,
		"sessions": c.Sessions, "session_bytes": c.Bytes, "session_budget": c.Budget,
		"session_hits": c.Hits, "session_misses": c.Misses, "session_evictions": c.Evictions,
		"problems": c.Problems, "problem_bytes": c.ProblemBytes, "problem_shares": c.Shares,
		"jobs_retained": retained, "retained_bytes": retainedBytes,
	})
}

func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

// writeJSON answers code with v as JSON, or 500 with the error when v has
// no JSON form: encoded before the status goes out, so a client never
// reads a success without its body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		code = http.StatusInternalServerError
		data, _ = json.Marshal(map[string]string{"error": fmt.Sprintf("encode: %v", err)})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(append(data, '\n')) // fails only once the client has gone
}
