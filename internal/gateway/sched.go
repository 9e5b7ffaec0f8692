package gateway

import (
	"context"
	"fmt"
	"sync"
)

// ErrQueueFull is returned by Submit when the tenant's queue is at
// capacity — the HTTP layer maps it to 429 with Retry-After.
type ErrQueueFull struct {
	Tenant     string
	Depth      int
	RetryAfter int // seconds — a crude service-rate estimate
}

func (e *ErrQueueFull) Error() string {
	return fmt.Sprintf("gateway: tenant %q queue full (%d queued)", e.Tenant, e.Depth)
}

// ErrDraining is returned by Submit once Drain has begun.
var ErrDraining = fmt.Errorf("gateway: server is draining")

// Scheduler runs jobs on a bounded worker pool with one FIFO queue per
// tenant. Admission is per tenant (a noisy tenant fills its own queue
// and gets 429s; others are unaffected) and dispatch round-robins over
// tenants with backlog, so service is fair rather than
// first-come-first-served across the whole server.
type Scheduler struct {
	workers int
	depth   int
	run     func(context.Context, *Job)
	// done, when set before the first Submit, is told of every job a
	// worker is through with — run to its end or found canceled in the
	// queue — once it is terminal.
	done func(*Job)

	mu       sync.Mutex
	cond     *sync.Cond
	queues   map[string][]*Job
	tenants  []string // round-robin order; tenants join on first submit
	next     int      // round-robin cursor
	pending  int
	active   int
	draining bool

	wg sync.WaitGroup
}

// NewScheduler starts workers goroutines servicing per-tenant queues of
// capacity depth each; run executes one job (it must handle the job's
// full lifecycle: state transitions, events, result).
func NewScheduler(workers, depth int, run func(context.Context, *Job)) *Scheduler {
	if workers < 1 {
		workers = 1
	}
	if depth < 1 {
		depth = 1
	}
	s := &Scheduler{
		workers: workers,
		depth:   depth,
		run:     run,
		queues:  make(map[string][]*Job),
	}
	s.cond = sync.NewCond(&s.mu)
	for i := 0; i < workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Submit enqueues the job on its tenant's queue. It fails fast with
// ErrQueueFull (backpressure) or ErrDraining (shutdown) — never blocks.
func (s *Scheduler) Submit(j *Job) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return ErrDraining
	}
	q := s.queues[j.Tenant]
	if len(q) >= s.depth {
		// Retry-After: the backlog ahead of a resubmit, spread over the
		// pool — at least a second so clients actually back off.
		retry := (s.pending + s.active) / s.workers
		if retry < 1 {
			retry = 1
		}
		return &ErrQueueFull{Tenant: j.Tenant, Depth: len(q), RetryAfter: retry}
	}
	if _, ok := s.queues[j.Tenant]; !ok {
		s.tenants = append(s.tenants, j.Tenant)
	}
	s.queues[j.Tenant] = append(q, j)
	s.pending++
	s.cond.Signal()
	return nil
}

// pop removes the next job in round-robin tenant order. Caller holds
// s.mu; returns nil when every queue is empty.
func (s *Scheduler) pop() *Job {
	for range s.tenants {
		t := s.tenants[s.next%len(s.tenants)]
		s.next++
		if q := s.queues[t]; len(q) > 0 {
			j := q[0]
			s.queues[t] = q[1:]
			s.pending--
			return j
		}
	}
	return nil
}

func (s *Scheduler) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for s.pending == 0 && !s.draining {
			s.cond.Wait()
		}
		j := s.pop()
		if j == nil {
			// Draining and nothing queued.
			s.mu.Unlock()
			return
		}
		s.active++
		s.mu.Unlock()

		ctx, cancel := context.WithCancel(context.Background())
		// A job canceled while queued skips execution entirely.
		if j.arm(cancel) {
			s.run(ctx, j)
		}
		cancel()
		if s.done != nil {
			s.done(j)
		}

		s.mu.Lock()
		s.active--
		s.mu.Unlock()
	}
}

// Stats reports pending and active job counts.
func (s *Scheduler) Stats() (pending, active int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pending, s.active
}

// Drain stops admission, lets queued and running jobs finish, and
// returns when the pool is idle or ctx expires (running solves keep
// their checkpoints either way, so a timeout loses no durable work).
func (s *Scheduler) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.cond.Broadcast()
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
