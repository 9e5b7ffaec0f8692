package precond

import (
	"errors"
	"math"
	"strconv"
	"strings"
	"testing"

	"parapre/internal/dist"
	"parapre/internal/dsys"
	"parapre/internal/ilu"
	"parapre/internal/krylov"
)

func TestNamesMatchPaperNotation(t *testing.T) {
	systems, _, _ := buildPoisson(t, 11, 2, 30)
	s := systems[0]
	b1, err := NewBlock1(s)
	if err != nil {
		t.Fatal(err)
	}
	if b1.Name() != "Block 1" {
		t.Fatalf("Block1 name %q", b1.Name())
	}
	b2, err := NewBlock2(s, ilu.DefaultILUT())
	if err != nil {
		t.Fatal(err)
	}
	if b2.Name() != "Block 2" {
		t.Fatalf("Block2 name %q", b2.Name())
	}
	s1, err := NewSchur1(s, DefaultSchur1())
	if err != nil {
		t.Fatal(err)
	}
	if s1.Name() != "Schur 1" {
		t.Fatalf("Schur1 name %q", s1.Name())
	}
	s2, err := NewSchur2(s, DefaultSchur2())
	if err != nil {
		t.Fatal(err)
	}
	if s2.Name() != "Schur 2" {
		t.Fatalf("Schur2 name %q", s2.Name())
	}
	if b1.SetupFlops() <= 0 || b2.SetupFlops() <= 0 || s1.SetupFlops() <= 0 || s2.SetupFlops() <= 0 {
		t.Fatal("SetupFlops")
	}
}

func TestSchur1OnSimpleBoxPartition(t *testing.T) {
	// The Schur machinery must work on any partition shape, including the
	// §5.1 boxes.
	const m, px, py = 17, 2, 2
	const p = px * py
	systems, a, b := buildPoissonBoxes(t, m, px, py)
	want := refSolution(t, a, b)
	_, x := solveWith(t, systems, p, func(s *dsys.System) Preconditioner {
		pc, err := NewSchur1(s, DefaultSchur1())
		if err != nil {
			t.Fatal(err)
		}
		return pc
	})
	checkClose(t, x, want, 2e-4, "Schur1/boxes")
}

func TestSchur1MoreInnerItersNeverHurtsOuter(t *testing.T) {
	// Strengthening the inner Schur solve must not increase outer
	// iteration counts (monotone quality dial).
	const m, p = 17, 4
	systems, _, _ := buildPoisson(t, m, p, 32)
	prev := math.MaxInt32
	for _, inner := range []int{1, 3, 8} {
		opts := DefaultSchur1()
		opts.SchurIters = inner
		it, _ := solveWith(t, systems, p, func(s *dsys.System) Preconditioner {
			pc, err := NewSchur1(s, opts)
			if err != nil {
				t.Fatal(err)
			}
			return pc
		})
		if it > prev {
			t.Fatalf("SchurIters=%d gave %d outer iterations, worse than weaker setting (%d)", inner, it, prev)
		}
		prev = it
	}
}

func TestSchur2DropTolTradesQuality(t *testing.T) {
	// Very aggressive dropping in the expanded Schur assembly must not
	// break convergence, only (possibly) slow it.
	const m, p = 15, 3
	systems, a, b := buildPoisson(t, m, p, 33)
	want := refSolution(t, a, b)
	for _, drop := range []float64{0, 1e-2} {
		opts := DefaultSchur2()
		opts.DropTol = drop
		_, x := solveWith(t, systems, p, func(s *dsys.System) Preconditioner {
			pc, err := NewSchur2(s, opts)
			if err != nil {
				t.Fatal(err)
			}
			return pc
		})
		checkClose(t, x, want, 2e-4, "Schur2 drop")
	}
}

func TestPreconditionersOnOriginMachineModel(t *testing.T) {
	// The machine model must not change the mathematics: same partition,
	// different machine → identical iteration counts.
	const m, p = 13, 3
	systems, _, _ := buildPoisson(t, m, p, 34)
	run := func(mach *dist.Machine) int {
		iters := make([]int, p)
		dist.Run(p, mach, func(c *dist.Comm) {
			s := systems[c.Rank()]
			pc, err := NewSchur1(s, DefaultSchur1())
			if err != nil {
				t.Error(err)
				return
			}
			x := make([]float64, s.NLoc())
			res := distributedSolve(c, s, pc, x)
			iters[c.Rank()] = res
		})
		return iters[0]
	}
	a := run(dist.LinuxCluster())
	b := run(dist.Origin3800())
	if a != b {
		t.Fatalf("machine model changed iteration count: %d vs %d", a, b)
	}
}

// distributedSolve is a tiny local helper mirroring solveWith for a
// single preconditioner instance.
func distributedSolve(c *dist.Comm, s *dsys.System, pc Preconditioner, x []float64) int {
	res := krylov.Distributed(c, s, func(z, r []float64) { pc.Apply(c, z, r) }, s.B, x,
		krylov.Options{Restart: 20, MaxIters: 500, Tol: 1e-6, Flexible: true})
	return res.Iterations
}

func TestBlockOrderedDirect(t *testing.T) {
	const m, p = 17, 3
	systems, a, b := buildPoisson(t, m, p, 36)
	want := refSolution(t, a, b)
	for _, useILU0 := range []bool{true, false} {
		_, x := solveWith(t, systems, p, func(s *dsys.System) Preconditioner {
			pc, err := NewBlockOrdered(s, useILU0, ilu.DefaultILUT())
			if err != nil {
				t.Fatal(err)
			}
			if pc.SetupFlops() <= 0 {
				t.Fatal("SetupFlops")
			}
			return pc
		})
		checkClose(t, x, want, 2e-4, "ordered block")
	}
	// Names must advertise the ordering.
	pc, err := NewBlockOrdered(systems[0], true, ilu.DefaultILUT())
	if err != nil {
		t.Fatal(err)
	}
	if pc.Name() != "Block 1 (RCM)" {
		t.Fatalf("name %q", pc.Name())
	}
}

func TestSchwarzAccessors(t *testing.T) {
	const m, px, py = 13, 2, 1
	systems, a, _ := buildPoissonBoxes(t, m, px, py)
	sw, err := NewSchwarz(systems[0], a, DefaultSchwarz(m, px, py, true))
	if err != nil {
		t.Fatal(err)
	}
	if sw.Name() != "AddSchwarz+CGC" {
		t.Fatalf("name %q", sw.Name())
	}
	if sw.SetupFlops() <= 0 {
		t.Fatal("SetupFlops")
	}
	sw2, err := NewSchwarz(systems[1], a, DefaultSchwarz(m, px, py, false))
	if err != nil {
		t.Fatal(err)
	}
	if sw2.Name() != "AddSchwarz" {
		t.Fatalf("name %q", sw2.Name())
	}
}

func TestTinySubdomainsAllPreconditioners(t *testing.T) {
	// P=12 on a 7×7 grid: ~4 nodes per subdomain, many of them entirely
	// interface (NInt = 0) — the degenerate paths of the Schur variants.
	const m, p = 7, 12
	systems, a, b := buildPoisson(t, m, p, 40)
	want := refSolution(t, a, b)
	mks := map[string]func(s *dsys.System) Preconditioner{
		"Block 1": func(s *dsys.System) Preconditioner {
			pc, err := NewBlock1(s)
			if err != nil {
				t.Fatal(err)
			}
			return pc
		},
		"Schur 1": func(s *dsys.System) Preconditioner {
			pc, err := NewSchur1(s, DefaultSchur1())
			if err != nil {
				t.Fatal(err)
			}
			return pc
		},
		"Schur 2": func(s *dsys.System) Preconditioner {
			pc, err := NewSchur2(s, DefaultSchur2())
			if err != nil {
				t.Fatal(err)
			}
			return pc
		},
	}
	// Confirm the degenerate situation actually occurs.
	deg := 0
	for _, s := range systems {
		if s.NInt == 0 {
			deg++
		}
	}
	if deg == 0 {
		t.Log("no all-interface subdomain arose; test still exercises tiny blocks")
	}
	for name, mk := range mks {
		_, x := solveWith(t, systems, p, mk)
		checkClose(t, x, want, 2e-4, name)
	}
}

func TestBlockICDirect(t *testing.T) {
	const m, p = 15, 3
	systems, a, b := buildPoisson(t, m, p, 41)
	want := refSolution(t, a, b)

	_, x := solveWith(t, systems, p, func(s *dsys.System) Preconditioner {
		pc, err := NewBlockIC(s)
		if err != nil {
			t.Fatal(err)
		}
		if pc.Name() != "Block IC" || pc.SetupFlops() <= 0 {
			t.Fatal("Block IC accessors")
		}
		return pc
	})
	checkClose(t, x, want, 2e-4, "Block IC")
}

// TestParseKind: every Kind is found under its own spelling and under any
// casing of it; anything else is an *UnknownKindError that names the input
// and lists what would have been accepted.
func TestParseKind(t *testing.T) {
	for _, k := range []Kind{KindBlock1, KindBlock2, KindBlockIC,
		KindSchur1, KindSchur2, KindNone} {
		for _, spelling := range []string{string(k), strings.ToLower(string(k)), strings.ToUpper(string(k))} {
			if got, err := ParseKind(spelling); err != nil || got != k {
				t.Errorf("ParseKind(%q) = %q, %v; want %q", spelling, got, err, k)
			}
		}
	}
	for _, name := range []string{"", "Block 9", "Schur1", " Schur 1", "Schwarz", "Block ARMS", "Block 2P"} {
		got, err := ParseKind(name)
		var unknown *UnknownKindError
		if !errors.As(err, &unknown) || unknown.Name != name || got != "" {
			t.Errorf("ParseKind(%q) = %q, %v; want an *UnknownKindError for that name", name, got, err)
			continue
		}
		for _, want := range []string{strconv.Quote(name), "Schur 1", "Block IC", "None"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("ParseKind(%q): message %q does not mention %s", name, err, want)
			}
		}
	}
}
