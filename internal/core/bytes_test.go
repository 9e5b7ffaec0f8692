package core_test

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"parapre/internal/arms"
	"parapre/internal/core"
	"parapre/internal/dsys"
	"parapre/internal/ilu"
	"parapre/internal/par"
	"parapre/internal/precond"
	"parapre/internal/sparse"
)

// What a session keeps is what it uses: over everything Bytes reaches, the
// capacity no length covers stays under one percent. An assembled matrix
// that pins its triplet count (2.5 to 7.7 times its entries, the serial
// COO.ToCSR before it copied out at exact length) fails every row.
func TestSessionHoldsNoSlack(t *testing.T) {
	// One worker, as in a one-core container: every conversion is serial.
	defer par.SetWorkers(par.SetWorkers(1))
	for _, pr := range []struct {
		name string
		size int
	}{{"tc1-poisson2d", 33}, {"tc2-poisson3d", 9}, {"tc5-convdiff", 33}, {"tc6-elasticity", 17}} {
		for _, kind := range []precond.Kind{precond.KindBlock1, precond.KindBlock2, precond.KindSchur1, precond.KindSchur2} {
			sess, err := core.NewSession(buildProblem(t, pr.name, pr.size), core.DefaultConfig(4, kind))
			if err != nil {
				t.Fatalf("%s %s: %v", pr.name, kind, err)
			}
			// One solve first: the scratch it grows is held from then on.
			if _, err := sess.Solve(nil); err != nil {
				t.Fatalf("%s %s: %v", pr.name, kind, err)
			}
			held, used := sess.Footprint()
			if slack := held - used; slack*100 > held {
				t.Errorf("%s %s: %d of %d bytes held are spare capacity (%.1f %%), want at most 1 %%",
					pr.name, kind, slack, held, 100*float64(slack)/float64(held))
			}
		}
	}
}

// object is a pointer the walk below has seen: its address and its type (a
// struct and its first field share an address).
type object struct {
	p unsafe.Pointer
	t reflect.Type
}

// reach calls visit once on every pointer reachable from v that seen does
// not hold yet, through unexported fields too, and adds it to seen.
// Cache-like atomic pointers and unsafe pointers are not followed.
func reach(v reflect.Value, seen map[object]bool, visit func(reflect.Value)) {
	switch v.Kind() {
	case reflect.Pointer:
		k := object{v.UnsafePointer(), v.Type()}
		if v.IsNil() || seen[k] {
			return
		}
		seen[k] = true
		visit(v)
		reach(v.Elem(), seen, visit)
	case reflect.Interface:
		if !v.IsNil() {
			reach(v.Elem(), seen, visit)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			reach(v.Field(i), seen, visit)
		}
	case reflect.Slice, reflect.Array:
		switch v.Type().Elem().Kind() {
		case reflect.Pointer, reflect.Interface, reflect.Struct, reflect.Slice, reflect.Array:
			for i := 0; i < v.Len(); i++ {
				reach(v.Index(i), seen, visit)
			}
		}
	}
}

// inPattern reports whether m stores exactly the pattern of the factor f:
// its strict lower triangle, diagonal and strict upper triangle.
func inPattern(m *sparse.CSR, f *ilu.LU) bool {
	if m.Rows != f.N() || m.Cols != f.N() || m.NNZ() != f.NNZ() {
		return false
	}
	for i := 0; i < m.Rows; i++ {
		cols, _ := m.Row(i)
		want, _ := f.LRow(i, make([]int32, 0, len(cols)))
		want = append(want, int32(i))
		want, _ = f.URow(i, want)
		if !slices.Equal(cols, want) {
			return false
		}
	}
	return true
}

// A session holds each matrix once. With the layout counted first, the
// Schur preconditioners add no copy of a part of the subdomain matrix (B,
// F, E, C, E_ext: Schur 1 reads them in place), no second copy of a matrix
// one of their factors holds in its pattern (Schur 2's S), and no reduced
// matrix its reduction has already handed on (TakeS). Sizes are the paper
// tables' of the benchmark.
func TestSessionHoldsEachMatrixOnce(t *testing.T) {
	defer par.SetWorkers(par.SetWorkers(1))
	parts := []dsys.Part{dsys.PartB, dsys.PartF, dsys.PartE, dsys.PartC, dsys.PartEExt}
	csrType := reflect.TypeOf((*sparse.CSR)(nil))
	luType := reflect.TypeOf((*ilu.LU)(nil))
	redType := reflect.TypeOf((*arms.Reduction)(nil))
	for _, pr := range []struct {
		name string
		size int
	}{{"tc1-poisson2d", 129}, {"tc2-poisson3d", 21}, {"tc5-convdiff", 129}, {"tc6-elasticity", 49}} {
		prob := buildProblem(t, pr.name, pr.size)
		for _, kind := range []precond.Kind{precond.KindSchur1, precond.KindSchur2} {
			sess, err := core.NewSession(prob, core.DefaultConfig(4, kind))
			if err != nil {
				t.Fatalf("%s %s: %v", pr.name, kind, err)
			}
			systems, pcs := sess.Ranks()
			seen := map[object]bool{}
			for _, s := range systems {
				reach(reflect.ValueOf(s), seen, func(reflect.Value) {})
			}
			var twice []any
			for r, pc := range pcs {
				var mats []*sparse.CSR
				var lus []*ilu.LU
				reach(reflect.ValueOf(pc), seen, func(v reflect.Value) {
					switch v.Type() {
					case csrType:
						mats = append(mats, (*sparse.CSR)(v.UnsafePointer()))
					case luType:
						lus = append(lus, (*ilu.LU)(v.UnsafePointer()))
					case redType:
						if red := (*arms.Reduction)(v.UnsafePointer()); red.S != nil {
							twice = append(twice, red.S)
						}
					}
				})
				for _, m := range mats {
					for _, p := range parts {
						if m.Equal(systems[r].Window(p).CSR()) {
							twice = append(twice, m)
						}
					}
					for _, f := range lus {
						if inPattern(m, f) {
							twice = append(twice, m)
						}
					}
				}
			}
			if len(twice) > 0 {
				t.Errorf("%s %s: the preconditioners hold %.2f MB in %d matrices the layout, a factor or the reduction already holds",
					pr.name, kind, float64(core.HeldBy(twice...))/1e6, len(twice))
			}
		}
	}
}

// A stored matrix costs 12 bytes per entry — a 32-bit column and its value —
// and 4 per row pointer, plus a header and caches of fixed size: the
// problem's A of tc1 at 129² and each of its four subdomain matrices. With
// 64-bit columns every one of them is 4 bytes per entry over, with 64-bit
// row pointers 4 per row.
func TestCSRBytesPerEntry(t *testing.T) {
	defer par.SetWorkers(par.SetWorkers(1))
	const fixed = 256 // the CSR itself, its last row pointer, the cached blocked-format verdict
	prob := buildProblem(t, "tc1-poisson2d", 129)
	sess, err := core.NewSession(prob, core.DefaultConfig(4, precond.KindBlock1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Solve(nil); err != nil {
		t.Fatal(err)
	}
	systems, _ := sess.Ranks()
	mats := []*sparse.CSR{prob.A}
	for _, s := range systems {
		mats = append(mats, s.A)
	}
	for k, a := range mats {
		held, limit := core.HeldBy(a), int64(12*a.NNZ()+4*a.Rows+fixed)
		t.Logf("matrix %d: %d×%d, %d entries, %d bytes held, %.2f per entry", k, a.Rows, a.Cols, a.NNZ(), held,
			float64(held-int64(4*a.Rows))/float64(a.NNZ()))
		if held > limit {
			t.Errorf("matrix %d (%d rows, %d entries) holds %d bytes, more than 12 per entry and 4 per row (%d)",
				k, a.Rows, a.NNZ(), held, limit)
		}
	}
}

// A mesh costs its coordinates, 8·Dim bytes a node, and its elements, a
// 32-bit node id per corner: 4·NPE bytes an element, plus its header. The
// meshes of the four kinds of case: the unit square's triangles, the cube's
// tetrahedra, the quarter ring and the plate with a hole. With 64-bit
// element lists the triangles are 12 bytes an element over, the tetrahedra
// 16.
func TestMeshBytesPerNodeAndElement(t *testing.T) {
	const fixed = 64 // the Mesh itself
	for _, pr := range []struct {
		name string
		size int
	}{{"tc1-poisson2d", 65}, {"tc2-poisson3d", 13}, {"tc3-unstructured", 65}, {"tc6-elasticity", 33}} {
		m := buildProblem(t, pr.name, pr.size).Mesh
		if m == nil {
			t.Fatalf("%s: no mesh", pr.name)
		}
		held := core.HeldBy(m)
		limit := int64(8*m.Dim*m.NumNodes() + 4*m.NPE*m.NumElems() + fixed)
		if held > limit {
			t.Errorf("%s: %v holds %d bytes, more than 8·Dim per node and 4·NPE per element (%d)", pr.name, m, held, limit)
		}
	}
}

// liveHeap is HeapAlloc with nothing collectable left: the second
// collection empties the sync.Pool victim caches the first one filled.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// The problem's Bytes and its session's are held to the allocator's own
// account for every preconditioner a session can be built with: a problem
// and its session built alone raise the live heap by what the two say
// together, within a tenth (size classes, closures' captured scratch). A
// family that keeps its factors where the walk cannot reach — behind a
// func value — under-counts by more and fails here.
func TestSessionBytesMatchesHeap(t *testing.T) {
	const size = 65
	for _, tc := range sessionConfigs(size) {
		cfg := tc.config(4)
		before := liveHeap()
		prob := buildProblem(t, "tc1-poisson2d", size)
		sess, err := core.NewSession(prob, cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if _, err := sess.Solve(nil); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		heap := liveHeap() - before
		got := prob.Bytes() + sess.Bytes()
		ab, mesh, layout, pcs := sess.Components()
		t.Logf("%-15s Bytes() %8d  heap %8d  %+.1f %%  %4.0f B/unknown  (A and b %d, mesh %d, layout %d, preconditioner %d)",
			tc.name, got, heap, 100*float64(got-heap)/float64(heap), float64(got)/(size*size), ab, mesh, layout, pcs)
		if math.Abs(float64(got-heap)) > 0.10*float64(heap) {
			t.Errorf("%s: Bytes() = %d with the problem's, the live heap grew by %d (%+.1f %%)",
				tc.name, got, heap, 100*float64(got-heap)/float64(heap))
		}
		runtime.KeepAlive(sess)
	}
}

// What a session and its problem hold is fixed once the session is built:
// the preconditioners take their apply scratch — inner Krylov bases and
// vectors — from pools the walk skips, and every halo sizes its staging
// buffer with its pattern. Two solves move neither count by a byte, so a
// cache charges a session once, when it is built. While the
// preconditioners kept their scratch, Schur 1 rose by 6 to 13 % over its
// first solve.
func TestSessionBytesSteadyAcrossSolves(t *testing.T) {
	const size = 33
	configs := append(sessionConfigs(size),
		sessionConfig{"RCM Block 2", precond.KindBlock2, func(cfg *core.Config) { cfg.RCM = true }})
	for _, tc := range configs {
		prob := buildProblem(t, "tc1-poisson2d", size)
		sess, err := core.NewSession(prob, tc.config(4))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		built := prob.Bytes() + sess.Bytes()
		for i := 0; i < 2; i++ {
			if _, err := sess.Solve(nil); err != nil {
				t.Fatalf("%s solve %d: %v", tc.name, i, err)
			}
		}
		if solved := prob.Bytes() + sess.Bytes(); solved != built {
			t.Errorf("%s: Problem.Bytes + Session.Bytes = %d when built, %d after two solves (%+d)",
				tc.name, built, solved, solved-built)
		}
	}
}

// What a session holds does not depend on the worker count it was built
// and solved under: nothing worker-dependent is kept beside a factor (the
// row-partition caches are tens of bytes per matrix). A per-factor schedule
// built only when Workers() > 1 — the level sets of the removed scheduled
// sweeps, +0.9 to +4.1 % here — fails every row on a host with two CPUs.
func TestSessionBytesIndependentOfWorkers(t *testing.T) {
	bytesAt := func(workers int, kind precond.Kind) int64 {
		defer par.SetWorkers(par.SetWorkers(workers))
		prob := buildProblem(t, "tc1-poisson2d", 129)
		sess, err := core.NewSession(prob, core.DefaultConfig(4, kind))
		if err != nil {
			t.Fatalf("%s at %d workers: %v", kind, workers, err)
		}
		if _, err := sess.Solve(nil); err != nil {
			t.Fatalf("%s at %d workers: %v", kind, workers, err)
		}
		return prob.Bytes() + sess.Bytes()
	}
	for _, kind := range []precond.Kind{precond.KindBlock1, precond.KindBlock2, precond.KindSchur1, precond.KindSchur2} {
		one, two := bytesAt(1, kind), bytesAt(2, kind)
		if diff := math.Abs(float64(two - one)); diff > 0.001*float64(one) {
			t.Errorf("%s: Bytes() = %d at one worker, %d at two (%+.2f %%), want within 0.1 %%",
				kind, one, two, 100*float64(two-one)/float64(one))
		}
	}
}

// narrowMax is the largest order of an ilu.LU whose columns all fit 16
// bits.
const narrowMax = 1 << 16

// wideFactorColumns returns, for every ilu.LU the session's preconditioners
// reach whose order is at most narrowMax, the lengths of the int32 slices
// it holds besides its two row-pointer arrays: a factor that fits 16-bit
// columns holds no 32-bit ones.
func wideFactorColumns(sess *core.Session) []string {
	luType := reflect.TypeOf((*ilu.LU)(nil))
	// int32s lists the lengths of the nonempty int32 slices in v's fields.
	var int32s func(v reflect.Value, lens []int) []int
	int32s = func(v reflect.Value, lens []int) []int {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				lens = int32s(v.Field(i), lens)
			}
		case reflect.Slice:
			if v.Type().Elem().Kind() == reflect.Int32 && v.Len() > 0 {
				lens = append(lens, v.Len())
			}
		}
		return lens
	}
	var found []string
	_, pcs := sess.Ranks()
	seen := map[object]bool{}
	for _, pc := range pcs {
		reach(reflect.ValueOf(pc), seen, func(v reflect.Value) {
			if v.Type() != luType {
				return
			}
			f := (*ilu.LU)(v.UnsafePointer())
			if f.N() > narrowMax {
				return
			}
			ptrs := 0
			for _, l := range int32s(v.Elem(), nil) {
				if l == f.N()+1 && ptrs < 2 {
					ptrs++
					continue
				}
				found = append(found, fmt.Sprintf("[]int32 of %d in a factor of order %d", l, f.N()))
			}
		})
	}
	return found
}

// Nothing a problem, its layouts or a session keeps is a 64-bit index
// array: mesh elements, row pointers, subdomain index maps, halo links,
// permutations, pivots and group extents are all 32-bit, like the columns.
// A slice of int, int64 or uint64, or of arrays of them, longer than 64
// reachable from any of them fails, for every kind, the RCM block, Schwarz
// and both overlapping blocks. The small problems hold fewer than 64
// Schur 2 groups a rank, so one Schur 2 row at tc1@129 (about 114 a rank)
// rides along. No subdomain factor of these sessions reaches order
// narrowMax, so none may hold a 32-bit column either.
func TestNoWideIndexHeld(t *testing.T) {
	defer par.SetWorkers(par.SetWorkers(1))
	const size = 33
	sw := precond.DefaultSchwarz(size, 2, 2, true)
	type config struct {
		name   string
		kind   precond.Kind
		mutate func(*core.Config)
	}
	var configs []config
	for _, kind := range precond.Kinds() {
		configs = append(configs, config{string(kind), kind, nil})
	}
	configs = append(configs,
		config{"RCM Block 2", precond.KindBlock2, func(cfg *core.Config) { cfg.RCM = true }},
		config{"Schwarz", precond.KindNone, func(cfg *core.Config) { cfg.Schwarz = &sw }},
		config{"Block 1 overlap", precond.KindBlock1, func(cfg *core.Config) { cfg.OverlapLevels = 1 }},
		config{"Block 2 overlap", precond.KindBlock2, func(cfg *core.Config) { cfg.OverlapLevels = 1 }})
	for _, pr := range []struct {
		name    string
		size    int
		configs []config
	}{
		{"tc1-poisson2d", size, configs},
		{"tc2-poisson3d", 9, configs},
		{"tc6-elasticity", 17, configs},
		{"tc1-poisson2d", 129, []config{{string(precond.KindSchur2), precond.KindSchur2, nil}}},
	} {
		for _, c := range pr.configs {
			if c.name == "Schwarz" && pr.name != "tc1-poisson2d" {
				continue // a square grid's box layout only
			}
			cfg := core.DefaultConfig(4, c.kind)
			if c.mutate != nil {
				c.mutate(&cfg)
			}
			sess, err := core.NewSession(buildProblem(t, pr.name, pr.size), cfg)
			if err != nil {
				t.Fatalf("%s %s: %v", pr.name, c.name, err)
			}
			if _, err := sess.Solve(nil); err != nil {
				t.Fatalf("%s %s: %v", pr.name, c.name, err)
			}
			if wide := sess.WideIndexArrays(64); len(wide) > 0 {
				slices.Sort(wide)
				t.Errorf("%s %s: %d wide index arrays held: %v", pr.name, c.name, len(wide), slices.Compact(wide))
			}
			if cols := wideFactorColumns(sess); len(cols) > 0 {
				t.Errorf("%s %s: %d factors' columns are 32-bit, first %s", pr.name, c.name, len(cols), cols[0])
			}
		}
	}
}
