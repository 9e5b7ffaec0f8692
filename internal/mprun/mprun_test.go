package mprun_test

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"parapre/internal/cases"
	"parapre/internal/ckpt"
	"parapre/internal/core"
	"parapre/internal/mprun"
	"parapre/internal/precond"
)

// The re-exec pattern: the test binary doubles as the rank worker. When
// Flags.Supervise spawns it — the worker wiring leads the command line — it
// runs one rank of the solve and exits: solvepde's -socket-worker mode with
// the shared flags and worker body, self-contained in the test binary.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-socket-worker" {
		os.Exit(workerMain(os.Args[1:]))
	}
	os.Exit(m.Run())
}

// Fixed solve every worker (and the in-process reference) runs: ~15
// iterations, checkpointed every 5, with the chaos rank self-SIGKILLing
// right after the iteration-10 checkpoint — a death mid-recurrence with a
// resumable snapshot behind it.
const (
	tcase     = "tc7-jump"
	tsize     = 17
	tprocs    = 4
	tevery    = 5
	tdieIters = 7
)

func workerConfig() core.Config {
	cfg := core.DefaultConfig(tprocs, precond.KindSchur1)
	cfg.Solver.RecordHistory = true
	return cfg
}

func workerMain(argv []string) int {
	fs := flag.NewFlagSet("mprun-worker", flag.ExitOnError)
	sock := mprun.RegisterFlags(fs)
	every := fs.Int("checkpoint-every", 0, "")
	restore := fs.String("restore", "", "")
	out := fs.String("out", "", "")
	fs.Parse(argv) //nolint:errcheck // ExitOnError

	c, err := cases.ByName(tcase)
	if err != nil {
		fmt.Fprintln(os.Stderr, "worker:", err)
		return 1
	}
	prob := c.Build(tsize)
	cfg := workerConfig()
	cfg.CheckpointEvery = *every
	if *restore != "" {
		ck, err := ckpt.Load(*restore)
		if err != nil {
			fmt.Fprintln(os.Stderr, "worker restore:", err)
			return 1
		}
		cfg.Restore = ck
	}
	res, err := sock.RunWorker(prob, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "worker:", err)
		return 1
	}
	if res != nil {
		line := fmt.Sprintf("%d %d\n", res.Iterations, math.Float64bits(res.RelRes))
		if err := os.WriteFile(*out, []byte(line), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "worker out:", err)
			return 1
		}
	}
	return 0
}

// TestSuperviseResumesAfterSIGKILL is the end-to-end durability gate over
// real OS processes: rank 1 SIGKILLs itself (uncatchable) right after the
// iteration-12 checkpoint, the supervisor respawns the world with
// -restore, and the resumed run must land on the same iteration count and
// bit-identical final residual as the uninterrupted in-process solve.
func TestSuperviseResumesAfterSIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a multi-process world")
	}
	c, err := cases.ByName(tcase)
	if err != nil {
		t.Fatal(err)
	}
	prob := c.Build(tsize)
	cfg := workerConfig()
	cfg.CheckpointEvery = tevery
	cfg.CheckpointSink = discardSink{} // reference run: checkpoint hook on, durability off
	base, err := core.Solve(prob, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if base.Iterations <= tdieIters {
		t.Fatalf("reference solve took %d iterations, death at %d never triggers", base.Iterations, tdieIters)
	}

	dir := t.TempDir()
	ckptPath := filepath.Join(dir, "solve.ckpt")
	outPath := filepath.Join(dir, "rank0.out")
	var logBuf strings.Builder
	sock := &mprun.Flags{DieRank: 1, DieAt: tdieIters}
	err = sock.Supervise(mprun.Job{P: tprocs, Problem: []string{"-out", outPath},
		CheckpointPath: ckptPath, CheckpointEvery: tevery}, &logBuf)
	if err != nil {
		t.Fatalf("Supervise: %v\nsupervisor log:\n%s", err, logBuf.String())
	}
	raw0, _ := os.ReadFile(outPath)
	if !strings.Contains(logBuf.String(), "respawning world from checkpoint") {
		t.Fatalf("supervisor never respawned from the checkpoint; out=%q log:\n%s", raw0, logBuf.String())
	}

	raw, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatalf("rank 0 wrote no result: %v", err)
	}
	var gotIters int
	var gotBits uint64
	if _, err := fmt.Sscanf(string(raw), "%d %d", &gotIters, &gotBits); err != nil {
		t.Fatalf("rank 0 result %q: %v", raw, err)
	}
	if gotIters != base.Iterations {
		t.Fatalf("resumed world took %d iterations, uninterrupted in-process %d", gotIters, base.Iterations)
	}
	if gotBits != math.Float64bits(base.Residual) {
		t.Fatalf("resumed residual bits %x, uninterrupted %x", gotBits, math.Float64bits(base.Residual))
	}
}

// discardSink satisfies ckpt.Sink for the reference run so both runs
// execute the same checkpoint hook (the hook must not perturb the solve).
type discardSink struct{}

func (discardSink) PutShard(seq, iter uint64, p int, rs *ckpt.RankState) error { return nil }
