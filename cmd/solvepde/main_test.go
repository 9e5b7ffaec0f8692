package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"parapre/internal/cases"
	"parapre/internal/core"
	"parapre/internal/dist"
	"parapre/internal/gateway"
	"parapre/internal/partition"
	"parapre/internal/precond"
)

func TestMathLog10Guard(t *testing.T) {
	if mathLog10(0) != -18 || mathLog10(-1) != -18 {
		t.Fatal("non-positive inputs must clamp")
	}
	if got := mathLog10(100); math.Abs(got-2) > 1e-12 {
		t.Fatalf("log10(100) = %v", got)
	}
}

// The command line is a gateway.Spec: each set of flags builds the
// configuration and the problem the daemon builds from the same spec, zeros
// read as the daemon reads them, and what the daemon refuses is refused.
func TestFlagsToSpec(t *testing.T) {
	dir := t.TempDir()
	write := func(name, text string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	// 4 on the diagonal, −1 beside it: A·1 = (3, 2, 2, 3).
	mtx := write("t.mtx", "%%MatrixMarket matrix coordinate real general\n4 4 10\n"+
		"1 1 4\n1 2 -1\n2 1 -1\n2 2 4\n2 3 -1\n3 2 -1\n3 3 4\n3 4 -1\n4 3 -1\n4 4 4\n")
	rhs := write("b.mtx", "%%MatrixMarket matrix array real general\n4 1\n0.5\n1\n1\n0.5\n")
	tc1, err := cases.ByName("tc1-poisson2d")
	if err != nil {
		t.Fatal(err)
	}
	tc5, err := cases.ByName("tc5-convdiff")
	if err != nil {
		t.Fatal(err)
	}

	// config is DefaultConfig with the edits a row's flags make.
	config := func(p int, kind precond.Kind, edits ...func(*core.Config)) core.Config {
		cfg := core.DefaultConfig(p, kind)
		for _, e := range edits {
			e(&cfg)
		}
		return cfg
	}
	keepX := func(c *core.Config) { c.KeepX = true }
	tests := []struct {
		name    string
		args    []string
		want    core.Config
		rows    int       // the problem's unknowns (0: not checked)
		b       []float64 // an upload's right-hand side
		wantErr bool
	}{
		{name: "defaults", args: nil, want: config(4, precond.KindSchur1),
			rows: tc1.Unknowns(tc1.DefaultSize)},
		{name: "Block 1", args: []string{"-precond", "BLOCK 1"}, want: config(4, precond.KindBlock1)},
		{name: "Block 2", args: []string{"-precond", "block 2"}, want: config(4, precond.KindBlock2)},
		{name: "Schur 1", args: []string{"-precond", "sChUr 1"}, want: config(4, precond.KindSchur1)},
		{name: "Schur 2", args: []string{"-precond", "SCHUR 2"}, want: config(4, precond.KindSchur2)},
		{name: "Block 2P", args: []string{"-precond", "block 2p"}, wantErr: true},
		{name: "Block IC", args: []string{"-precond", "Block ic"}, want: config(4, precond.KindBlockIC)},
		{name: "None", args: []string{"-precond", "NONE"}, want: config(4, precond.KindNone)},
		{name: "cluster", args: []string{"-machine", "cluster", "-p", "8"},
			want: config(8, precond.KindSchur1)},
		{name: "origin", args: []string{"-machine", "origin", "-p", "8"},
			want: config(8, precond.KindSchur1, func(c *core.Config) { c.Machine = dist.Origin3800() })},
		{name: "simple", args: []string{"-simple", "-case", "tc5-convdiff", "-size", "21"},
			want: config(4, precond.KindSchur1, func(c *core.Config) { c.Scheme = core.PartitionSimple }),
			rows: tc5.Unknowns(21)},
		{name: "zero size and P", args: []string{"-size", "0", "-p", "0"}, want: config(4, precond.KindSchur1),
			rows: tc1.Unknowns(tc1.DefaultSize)},
		{name: "negative size", args: []string{"-size", "-3"}, wantErr: true},
		{name: "negative P", args: []string{"-p", "-1"}, wantErr: true},
		{name: "unbuildable size", args: []string{"-size", "1"}, wantErr: true},
		{name: "case and matrix", args: []string{"-case", "tc1-poisson2d", "-matrix", mtx}, wantErr: true},
		{name: "matrix", args: []string{"-matrix", mtx, "-p", "2", "-precond", "block 1", "-rcm", "-tol", "1e-9"},
			want: config(2, precond.KindBlock1, keepX, func(c *core.Config) { c.RCM, c.Solver.Tol = true, 1e-9 }),
			rows: 4, b: []float64{3, 2, 2, 3}},
		{name: "matrix and rhs", args: []string{"-matrix", mtx, "-rhs", rhs, "-p", "2", "-precond", "Block 2"},
			want: config(2, precond.KindBlock2, keepX), rows: 4, b: []float64{0.5, 1, 1, 0.5}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			r, err := parseArgs(tt.args)
			var prob *core.Problem
			var cfg core.Config
			if err == nil {
				prob, cfg, err = r.setup()
			}
			if (err != nil) != tt.wantErr {
				t.Fatalf("error = %v, wantErr %v", err, tt.wantErr)
			}
			if tt.wantErr {
				return
			}
			if !reflect.DeepEqual(cfg, tt.want) {
				t.Errorf("config\n got %+v\nwant %+v", cfg, tt.want)
			}
			if tt.rows != 0 && prob.A.Rows != tt.rows {
				t.Errorf("%d unknowns, want %d", prob.A.Rows, tt.rows)
			}
			if tt.b != nil && !reflect.DeepEqual(prob.B, tt.b) {
				t.Errorf("b = %v, want %v", prob.B, tt.b)
			}
			if r.spec.Matrix != "" || r.spec.RHS != "" {
				t.Errorf("the upload's text is kept after the build")
			}
		})
	}
}

// One cell through solvepde's path and through the daemon with the same
// spec: the same iterations, solve time and solution, bit for bit, and the
// same set-up. The daemon reports a kept session's SetupTime, the largest
// rank's set-up charge, and solvepde a one-shot solve's, the virtual clock
// once every rank has charged it and synchronized (core.Solve); so the
// set-up is compared with a session built from solvepde's problem and
// configuration.
func TestSolveMatchesGateway(t *testing.T) {
	for _, kind := range []string{"Schur 1", "Block 2"} {
		t.Run(kind, func(t *testing.T) {
			r, err := parseArgs([]string{"-case", "tc1-poisson2d", "-size", "17", "-p", "4", "-precond", kind, "-verify"})
			if err != nil {
				t.Fatal(err)
			}
			prob, cfg, err := r.setup()
			if err != nil {
				t.Fatal(err)
			}
			cli, err := core.Solve(prob, cfg)
			if err != nil {
				t.Fatal(err)
			}

			srv, err := gateway.New(gateway.Options{Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			spec := r.spec
			j, err := srv.Submit("cli", &spec)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			if err := srv.Drain(ctx); err != nil {
				t.Fatal(err)
			}
			got := j.Result()
			if got == nil {
				t.Fatalf("job ended %q without a result", j.State())
			}
			if got.Iterations != cli.Iterations || got.SolveTime != cli.SolveTime {
				t.Errorf("gateway %d iterations, modeled solve %v s; solvepde %d, %v s",
					got.Iterations, got.SolveTime, cli.Iterations, cli.SolveTime)
			}
			sess, err := core.NewSession(prob, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got.SetupTime != sess.SetupTime() || cli.SetupTime < got.SetupTime {
				t.Errorf("modeled set-up: gateway %v s, session on solvepde's configuration %v s, one-shot %v s",
					got.SetupTime, sess.SetupTime(), cli.SetupTime)
			}
			if !reflect.DeepEqual(got.X, cli.X) || len(cli.X) != prob.A.Rows {
				t.Errorf("solutions differ (%d and %d entries)", len(got.X), len(cli.X))
			}
		})
	}
}

// -stats reports the partition the run distributed, read from the systems
// the solve kept: the line a fresh partition of the same problem and
// configuration gives, interface unknowns counted on the matrix graph.
func TestPartitionLineIsTheRuns(t *testing.T) {
	for _, args := range [][]string{
		{"-case", "tc1-poisson2d", "-size", "17", "-p", "8"},
		{"-case", "tc6-elasticity", "-p", "8", "-simple", "-machine", "origin"},
		{"-case", "tc3-unstructured", "-p", "4"},
	} {
		r, err := parseArgs(args)
		if err != nil {
			t.Fatal(err)
		}
		prob, cfg, err := r.setup()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := core.Solve(prob, cfg); err != nil {
			t.Fatal(err)
		}
		line, err := partitionLine(prob, cfg)
		if err != nil {
			t.Fatal(err)
		}

		part, err := core.Partition(prob, cfg)
		if err != nil {
			t.Fatal(err)
		}
		g := core.PatternGraph(prob.A)
		iface := 0
		for v := range part {
			for _, w := range g.Neighbors(v) {
				if part[w] != part[v] {
					iface++
					break
				}
			}
		}
		sizes := partition.Sizes(part, cfg.P)
		want := fmt.Sprintf("partition: edge cut %d, subdomain sizes %d..%d, imbalance %.3f, interface unknowns %d (%.1f%%)",
			partition.EdgeCut(g, part), slices.Min(sizes), slices.Max(sizes), partition.Imbalance(part, cfg.P),
			iface, 100*float64(iface)/float64(len(part)))
		if line != want {
			t.Errorf("%v:\n got %s\nwant %s", args, line, want)
		}
	}
}
