package dist

import (
	"errors"
	"runtime/debug"
	"sort"
	"sync"
	"time"
)

// DefaultWatchdogBudget is the progress budget RunOpts applies when a
// fault plan is set but no explicit watchdog budget is given: fault plans
// can stall the world (dropped messages, crashed ranks inside
// collectives), and a chaos run must end in a typed error, never a hang.
const DefaultWatchdogBudget = 30 * time.Second

// Run spawns fn on p rank goroutines over machine m, waits for all to
// finish, and returns the per-rank stats. It is the moral equivalent of
// mpirun. Panics in fn propagate (crashing the test/process) and protocol
// deadlocks hang, exactly like a default MPI runtime; use RunOpts for the
// supervised variant.
func Run(p int, m *Machine, fn func(c *Comm)) []Stats {
	w := NewWorld(p, m)
	stats := make([]Stats, p)
	var wg sync.WaitGroup
	wg.Add(p)
	for r := 0; r < p; r++ {
		c := w.Comm(r)
		go func() {
			defer wg.Done()
			fn(c)
			c.release()
			stats[c.rank] = c.Stats()
		}()
	}
	wg.Wait()
	return stats
}

// RunOpts is the supervised mpirun: it spawns fn on p rank goroutines
// with the given options and converts every failure mode into a typed
// error instead of a hang or an escaped panic:
//
//   - a stalled world (no rank completes an operation within the watchdog
//     budget) is unwound and reported as a *DeadlockError carrying every
//     rank's last-op diagnostics;
//   - a planned hard crash (FaultPlan.CrashRank) removes that rank; if
//     the survivors still finish, RunOpts returns a *CrashError (joined
//     with the abort reason when the crash also stalled the world);
//   - a panicking API call (Recv; Send and the collectives on a transport
//     failure) that hits a typed communication failure aborts the world
//     with that typed error;
//   - any other panic escaping fn aborts the world and is returned as a
//     *RankPanicError.
//
// The per-rank stats are returned even on error (failed or unwound ranks
// report their accounting up to the failure point). When opts.Faults is
// set and opts.Watchdog is zero, DefaultWatchdogBudget is applied.
func RunOpts(p int, m *Machine, opts WorldOptions, fn func(c *Comm)) ([]Stats, error) {
	if opts.Faults != nil && opts.Watchdog == 0 {
		opts.Watchdog = DefaultWatchdogBudget
	}
	w := NewWorldOpts(p, m, opts)
	stats := make([]Stats, p)

	var mu sync.Mutex
	var crashed []int
	var panicErr *RankPanicError

	var wg sync.WaitGroup
	wg.Add(p)
	for r := 0; r < p; r++ {
		c := w.Comm(r)
		go func() {
			defer wg.Done()
			defer func() {
				switch v := recover().(type) {
				case nil:
				case crashPanic:
					mu.Lock()
					crashed = append(crashed, v.rank)
					mu.Unlock()
					w.markCrashed(v.rank)
					w.opts.Collector.Add("fault_crashes", 1) // nil-safe
				case abortPanic:
					// World aborted elsewhere; unwind quietly.
				case *PeerCrashedError, *TagMismatchError:
					// The panicking Recv hit a typed communication failure
					// under the supervised runtime:
					// keep the error typed instead of wrapping it as a rank
					// panic, and unwind the world.
					w.abort(v.(error))
				default:
					pe := &RankPanicError{Rank: c.rank, Value: v, Stack: string(debug.Stack())}
					mu.Lock()
					if panicErr == nil {
						panicErr = pe
					}
					mu.Unlock()
					w.abort(pe)
				}
				stats[c.rank] = c.Stats()
				w.markDone(c.rank)
			}()
			fn(c)
			c.release()
		}()
	}

	var watchStop chan struct{}
	if opts.Watchdog > 0 {
		watchStop = make(chan struct{})
		go w.watchdog(opts.Watchdog, watchStop)
	}
	wg.Wait()
	if watchStop != nil {
		close(watchStop)
	}

	mu.Lock()
	pe := panicErr
	cr := append([]int(nil), crashed...)
	mu.Unlock()
	if pe != nil {
		return stats, pe
	}
	aerr := w.abortReason()
	if len(cr) > 0 {
		sort.Ints(cr)
		cerr := &CrashError{Ranks: cr}
		if aerr != nil {
			// A crash that stalled or unwound the world yields both typed
			// views: errors.As finds either through the join.
			return stats, errors.Join(aerr, cerr)
		}
		return stats, cerr
	}
	return stats, aerr
}

// watchdog polls the world's progress counter; if it stops moving for the
// budget while some rank is still running, the world is aborted with a
// DeadlockError holding every rank's diagnostics.
func (w *World) watchdog(budget time.Duration, stop chan struct{}) {
	poll := budget / 8
	if poll < time.Millisecond {
		poll = time.Millisecond
	}
	if poll > 250*time.Millisecond {
		poll = 250 * time.Millisecond
	}
	last := w.progress.Load()
	lastChange := time.Now()
	ticker := time.NewTicker(poll)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
		}
		cur := w.progress.Load()
		if cur != last {
			last = cur
			lastChange = time.Now()
			continue
		}
		if w.allDone() {
			return
		}
		if time.Since(lastChange) >= budget {
			w.opts.Collector.Add("deadlocks", 1) // nil-safe
			w.abort(&DeadlockError{Budget: budget, Ranks: w.snapshot()})
			return
		}
	}
}
