// Package mprun supervises a multi-process solver world: it hosts the
// socket hub and the durable checkpoint writer in the parent process,
// spawns one worker process per rank, and — the whole point — survives
// real process death: when a rank dies (SIGKILL, OOM, crash), the
// supervisor tears the world down and respawns every rank with a
// -restore pointing at the last complete checkpoint, replaying the solve
// from that iteration instead of from zero.
//
// Both CLIs (solvepde, ippsbench) drive their `-transport socket` modes
// through this package, the re-exec pattern: a CLI is its own worker
// binary. Flags is the part of their command lines that is the same —
// Flags.Supervise spawns the workers with it, Flags.RunWorker is what a
// spawned worker does — and each CLI adds the flags that name its problem.
package mprun

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"

	"parapre/internal/ckpt"
	"parapre/internal/core"
	"parapre/internal/dist/socket"
)

// Options configures one supervised world.
type Options struct {
	// P is the number of rank processes.
	P int

	// Binary is the worker executable; empty means os.Executable() (the
	// re-exec pattern: the CLI is its own worker).
	Binary string

	// Args builds the worker argv (excluding the binary) for one rank.
	// restore reports whether this spawn resumes from CheckpointPath —
	// workers should add their -restore flag exactly then.
	Args func(rank int, network, addr string, restore bool) []string

	// CheckpointPath, when set, attaches a ckpt.FileWriter to the hub (so
	// worker shards become durable atomic checkpoints) and enables
	// respawn-with-restore once the file exists.
	CheckpointPath string

	// MaxRespawns bounds how many times the world is respawned after a
	// rank death; 0 means DefaultMaxRespawns.
	MaxRespawns int

	// AcceptTimeout bounds the rendezvous of each spawn; 0 means
	// DefaultAcceptTimeout.
	AcceptTimeout time.Duration

	// Log, when non-nil, receives supervisor progress notes (spawns,
	// deaths, respawns).
	Log io.Writer
}

// DefaultMaxRespawns is the world-respawn budget after rank deaths.
const DefaultMaxRespawns = 3

// DefaultAcceptTimeout bounds the hub rendezvous of one spawn.
const DefaultAcceptTimeout = 30 * time.Second

// RespawnError reports a world that kept dying: the respawn budget is
// exhausted and the last attempt's failure is attached.
type RespawnError struct {
	Attempts int
	Err      error
}

func (e *RespawnError) Error() string {
	return fmt.Sprintf("mprun: world died %d times, respawn budget exhausted: %v", e.Attempts, e.Err)
}

func (e *RespawnError) Unwrap() error { return e.Err }

// event is one world-ending (or world-completing) observation.
type event struct {
	rank int
	err  error // nil: clean worker exit
}

// Supervise runs the world to completion, respawning from the last
// checkpoint on rank death. It returns nil once every rank has exited
// cleanly.
func Supervise(opt Options) error {
	if opt.P < 1 {
		return fmt.Errorf("mprun: P = %d", opt.P)
	}
	if opt.Binary == "" {
		bin, err := os.Executable()
		if err != nil {
			return fmt.Errorf("mprun: resolve worker binary: %w", err)
		}
		opt.Binary = bin
	}
	if opt.MaxRespawns == 0 {
		opt.MaxRespawns = DefaultMaxRespawns
	}
	if opt.AcceptTimeout == 0 {
		opt.AcceptTimeout = DefaultAcceptTimeout
	}
	sockDir, err := os.MkdirTemp("", "parapre-hub-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(sockDir)

	var lastErr error
	for attempt := 0; attempt <= opt.MaxRespawns; attempt++ {
		restore := opt.CheckpointPath != "" && fileExists(opt.CheckpointPath)
		if attempt > 0 {
			if restore {
				opt.logf("respawning world from checkpoint %s (attempt %d/%d)",
					opt.CheckpointPath, attempt, opt.MaxRespawns)
			} else {
				opt.logf("respawning world from scratch — no checkpoint yet (attempt %d/%d)",
					attempt, opt.MaxRespawns)
			}
		}
		done, err := runWorld(opt, sockDir, attempt, restore)
		if done {
			return err
		}
		lastErr = err
	}
	return &RespawnError{Attempts: opt.MaxRespawns + 1, Err: lastErr}
}

// runWorld runs one spawn of the world. done reports whether the result
// is final (clean completion or an unrecoverable setup failure); a false
// return asks the caller to respawn.
func runWorld(opt Options, sockDir string, attempt int, restore bool) (done bool, err error) {
	network := "unix"
	addr := filepath.Join(sockDir, fmt.Sprintf("hub-%d.sock", attempt))

	var sink ckpt.Sink
	if opt.CheckpointPath != "" {
		sink = ckpt.NewFileWriter(opt.CheckpointPath, opt.P)
	}
	events := make(chan event, 2*opt.P)
	hub, err := socket.NewHub(network, addr, opt.P, socket.HubOptions{
		Sink: sink,
		OnDeath: func(rank int, err error) {
			events <- event{rank: rank, err: fmt.Errorf("rank %d connection lost: %w", rank, err)}
		},
	})
	if err != nil {
		return true, fmt.Errorf("mprun: hub listen: %w", err)
	}
	defer hub.Shutdown()

	cmds := make([]*exec.Cmd, opt.P)
	kill := func() {
		for _, cmd := range cmds {
			if cmd != nil && cmd.Process != nil {
				_ = cmd.Process.Kill() // already-dead processes are fine
			}
		}
	}
	for r := 0; r < opt.P; r++ {
		cmd := exec.Command(opt.Binary, opt.Args(r, network, addr, restore)...)
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			kill()
			return true, fmt.Errorf("mprun: spawn rank %d: %w", r, err)
		}
		cmds[r] = cmd
		go func(rank int, cmd *exec.Cmd) {
			werr := cmd.Wait()
			if werr != nil {
				werr = fmt.Errorf("rank %d exited: %w", rank, werr)
			}
			events <- event{rank: rank, err: werr}
		}(r, cmd)
	}
	if err := hub.Accept(opt.AcceptTimeout); err != nil {
		kill()
		return true, fmt.Errorf("mprun: world rendezvous: %w", err)
	}

	alive := opt.P
	for alive > 0 {
		ev := <-events
		if ev.err != nil {
			opt.logf("world failure: %v", ev.err)
			kill()
			// Drain the remaining exits so no Wait goroutine leaks a send.
			for alive > 1 {
				<-events
				alive--
			}
			return false, ev.err
		}
		alive--
	}
	return true, nil
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

func (o *Options) logf(format string, args ...any) {
	if o.Log != nil {
		fmt.Fprintf(o.Log, "supervisor: "+format+"\n", args...)
	}
}

// DieAtSink wraps a worker's checkpoint sink with a deterministic
// self-destruct: right after forwarding the shard of the first iteration
// ≥ Iter, the process SIGKILLs itself — a real, uncatchable process
// death at a known solver iteration. Tests and the CI chaos smoke use it
// to exercise the supervisor's kill-and-resume path without racy
// external kill timing.
type DieAtSink struct {
	Sink ckpt.Sink
	Iter uint64
}

// PutShard forwards the shard, then dies if the trigger iteration is
// reached. The shard is flushed first so the respawned world has the
// checkpoint that includes the trigger iteration.
func (d DieAtSink) PutShard(seq, iter uint64, p int, rs *ckpt.RankState) error {
	err := d.Sink.PutShard(seq, iter, p, rs)
	if iter >= d.Iter {
		proc, _ := os.FindProcess(os.Getpid())
		_ = proc.Kill() // SIGKILL to self cannot meaningfully fail
		select {}       // unreachable: the kill is not catchable
	}
	return err
}

// Flags are the command-line flags a CLI's socket mode shares with every
// other's: the worker wiring the supervisor passes down and the chaos
// switch that kills a worker for real.
type Flags struct {
	Worker          bool // this process is one rank of a socket world
	Rank            int
	HubNet, HubAddr string
	DieRank, DieAt  int
}

// RegisterFlags defines the shared flags on fs.
func RegisterFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.BoolVar(&f.Worker, "socket-worker", false, "internal: run as one rank of a socket-transport world")
	fs.IntVar(&f.Rank, "rank", -1, "internal: this worker's rank")
	fs.StringVar(&f.HubNet, "hub-net", "unix", "internal: hub network")
	fs.StringVar(&f.HubAddr, "hub-addr", "", "internal: hub address")
	fs.IntVar(&f.DieRank, "die-rank", -1, "socket chaos: this rank's worker process SIGKILLs itself (requires -die-at-iter)")
	fs.IntVar(&f.DieAt, "die-at-iter", 0, "socket chaos: SIGKILL -die-rank right after the first checkpoint at or past this iteration")
	return f
}

// Job is one supervised solve of the calling CLI: the world size, the
// CLI's own flags that rebuild problem and configuration in a worker, and
// the values of the checkpoint and recovery flags both CLIs spell alike.
type Job struct {
	P               int
	Problem         []string
	CheckpointPath  string // -checkpoint: the hub owns the file
	CheckpointEvery int    // -checkpoint-every
	RestorePath     string // -restore, for the first spawn; a respawn restores from CheckpointPath
	Resilient       bool   // -resilient
}

// Supervise hosts the hub and the checkpoint writer and supervises one
// worker process per rank — this same binary with the worker wiring, j's
// problem flags and the shared tail — respawning the world from the last
// durable checkpoint when a rank dies. Progress notes go to log.
func (f *Flags) Supervise(j Job, log io.Writer) error {
	return Supervise(Options{
		P:              j.P,
		CheckpointPath: j.CheckpointPath,
		Log:            log,
		Args: func(rank int, network, addr string, restore bool) []string {
			args := []string{"-socket-worker", "-rank", strconv.Itoa(rank), "-hub-net", network, "-hub-addr", addr}
			args = append(args, j.Problem...)
			if j.Resilient {
				args = append(args, "-resilient")
			}
			if j.CheckpointEvery > 0 {
				args = append(args, "-checkpoint-every", strconv.Itoa(j.CheckpointEvery))
			}
			switch {
			case restore:
				args = append(args, "-restore", j.CheckpointPath)
			case j.RestorePath != "":
				args = append(args, "-restore", j.RestorePath)
			}
			if f.DieRank >= 0 && f.DieAt > 0 {
				args = append(args, "-die-rank", strconv.Itoa(f.DieRank), "-die-at-iter", strconv.Itoa(f.DieAt))
			}
			return args
		},
	})
}

// Outcome is what rank 0's result line reports.
type Outcome struct {
	Status     string // "converged" or "NOT converged"
	Iterations int
	RelRes     float64
}

// RunWorker is the worker mode: one rank of a socket world. It dials the
// hub and runs exactly this rank's share of the solve under cfg, whose
// Restore the CLI has loaded when the supervisor passed -restore. Rank 0
// gets the outcome to print as the line the supervisor's terminal shows;
// the other ranks get nil.
func (f *Flags) RunWorker(prob *core.Problem, cfg core.Config) (*Outcome, error) {
	if f.Rank < 0 || f.Rank >= cfg.P || f.HubAddr == "" {
		return nil, fmt.Errorf("bad worker wiring: rank %d of P=%d, hub %q", f.Rank, cfg.P, f.HubAddr)
	}
	cl, err := socket.Dial(f.HubNet, f.HubAddr, cfg.P, f.Rank, socket.Options{})
	if err != nil {
		return nil, fmt.Errorf("rank %d: %w", f.Rank, err)
	}
	defer cl.Close()
	var sink ckpt.Sink = cl
	if f.Rank == f.DieRank && f.DieAt > 0 && cfg.Restore == nil {
		// Deterministic chaos: SIGKILL ourselves right after shipping the
		// shard of the trigger iteration — first life only, so the
		// respawned world runs to completion.
		sink = DieAtSink{Sink: cl, Iter: uint64(f.DieAt)}
	}
	res, _, err := core.SolveRank(prob, cfg, f.Rank, cl, sink)
	if err != nil {
		return nil, fmt.Errorf("rank %d: %w", f.Rank, err)
	}
	if f.Rank != 0 {
		return nil, nil
	}
	out := &Outcome{Status: "converged", Iterations: res.Iterations, RelRes: res.Final}
	if !res.Converged {
		out.Status = "NOT converged"
	}
	if res.Initial > 0 {
		out.RelRes = res.Final / res.Initial
	}
	return out, nil
}
