package grid

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestUnitSquareTriCounts(t *testing.T) {
	for _, m := range []int{2, 3, 9, 33} {
		g := UnitSquareTri(m)
		if err := g.Check(); err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		if got, want := g.NumNodes(), m*m; got != want {
			t.Errorf("m=%d: %d nodes, want %d", m, got, want)
		}
		if got, want := g.NumElems(), 2*(m-1)*(m-1); got != want {
			t.Errorf("m=%d: %d elems, want %d", m, got, want)
		}
	}
}

func TestUnitSquareTriPaperSizeFormula(t *testing.T) {
	// The paper's grid is 1001×1001 = 1,002,001 points. Verify the count
	// formula at that size without building the mesh.
	m := 1001
	if m*m != 1002001 {
		t.Fatal("size formula broken")
	}
}

func TestUnitSquareTriAreaSums(t *testing.T) {
	g := UnitSquareTri(11)
	var total float64
	for e := 0; e < g.NumElems(); e++ {
		a := triArea(g, g.Elem(e))
		if a <= 0 {
			t.Fatalf("element %d has non-positive area %v", e, a)
		}
		total += a
	}
	if math.Abs(total-1) > 1e-12 {
		t.Fatalf("areas sum to %v, want 1", total)
	}
}

func TestUnitCubeTetCounts(t *testing.T) {
	for _, m := range []int{2, 3, 5} {
		g := UnitCubeTet(m)
		if err := g.Check(); err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		if got, want := g.NumNodes(), m*m*m; got != want {
			t.Errorf("m=%d: %d nodes, want %d", m, got, want)
		}
		if got, want := g.NumElems(), 6*(m-1)*(m-1)*(m-1); got != want {
			t.Errorf("m=%d: %d elems, want %d", m, got, want)
		}
	}
}

func tetVolume(g *Mesh, el []int32) float64 {
	a, b, c, d := g.Coord(int(el[0])), g.Coord(int(el[1])), g.Coord(int(el[2])), g.Coord(int(el[3]))
	var v [3][3]float64
	for k := 0; k < 3; k++ {
		v[0][k] = b[k] - a[k]
		v[1][k] = c[k] - a[k]
		v[2][k] = d[k] - a[k]
	}
	det := v[0][0]*(v[1][1]*v[2][2]-v[1][2]*v[2][1]) -
		v[0][1]*(v[1][0]*v[2][2]-v[1][2]*v[2][0]) +
		v[0][2]*(v[1][0]*v[2][1]-v[1][1]*v[2][0])
	return math.Abs(det) / 6
}

func TestUnitCubeTetVolumeSums(t *testing.T) {
	g := UnitCubeTet(4)
	var total float64
	for e := 0; e < g.NumElems(); e++ {
		vol := tetVolume(g, g.Elem(e))
		if vol <= 0 {
			t.Fatalf("element %d has non-positive volume", e)
		}
		total += vol
	}
	if math.Abs(total-1) > 1e-12 {
		t.Fatalf("volumes sum to %v, want 1", total)
	}
}

func TestKuhnSubdivisionConforming(t *testing.T) {
	// Every interior facet must be shared by exactly two tets; boundary
	// facets by exactly one. BoundaryNodes relies on this, so check the
	// node-level consequence: the boundary of the unit cube mesh is
	// exactly the set of nodes with a coordinate at 0 or 1.
	g := UnitCubeTet(4)
	onB := g.BoundaryNodes()
	for n := 0; n < g.NumNodes(); n++ {
		c := g.Coord(n)
		want := false
		for _, v := range c {
			if v == 0 || v == 1 {
				want = true
			}
		}
		if onB[n] != want {
			t.Fatalf("node %d at %v: boundary=%v, want %v", n, c, onB[n], want)
		}
	}
}

func TestSquareBoundaryNodes(t *testing.T) {
	g := UnitSquareTri(9)
	onB := g.BoundaryNodes()
	count := 0
	for n := 0; n < g.NumNodes(); n++ {
		c := g.Coord(n)
		want := c[0] == 0 || c[0] == 1 || c[1] == 0 || c[1] == 1
		if onB[n] != want {
			t.Fatalf("node %d at %v: boundary=%v, want %v", n, c, onB[n], want)
		}
		if onB[n] {
			count++
		}
	}
	if want := 4*9 - 4; count != want {
		t.Fatalf("boundary node count = %d, want %d", count, want)
	}
}

func TestQuarterRing(t *testing.T) {
	g := QuarterRing(9, 17)
	if err := g.Check(); err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 9*17 {
		t.Fatalf("node count %d", g.NumNodes())
	}
	// All nodes must have radius in [1, 2] and angle in [0, π/2].
	for n := 0; n < g.NumNodes(); n++ {
		c := g.Coord(n)
		r := math.Hypot(c[0], c[1])
		if r < 1-1e-12 || r > 2+1e-12 {
			t.Fatalf("node %d radius %v out of [1,2]", n, r)
		}
		if c[0] < -1e-12 || c[1] < -1e-12 {
			t.Fatalf("node %d out of first quadrant: %v", n, c)
		}
	}
	// Area of the quarter annulus is (π/4)(4−1) = 3π/4; the triangulated
	// area converges to it from below.
	var total float64
	for e := 0; e < g.NumElems(); e++ {
		total += triArea(g, g.Elem(e))
	}
	want := 3 * math.Pi / 4
	if math.Abs(total-want) > 0.01*want {
		t.Fatalf("quarter-ring area %v, want ≈ %v", total, want)
	}
}

func TestNodeGraphSymmetricNoSelfLoops(t *testing.T) {
	for _, g := range []*Mesh{UnitSquareTri(7), UnitCubeTet(3), QuarterRing(5, 6), PlateWithHole(16)} {
		ptr, adj := g.NodeGraph()
		nn := g.NumNodes()
		if len(ptr) != nn+1 {
			t.Fatalf("%v: ptr length %d", g, len(ptr))
		}
		neighbors := func(i int) []int { return adj[ptr[i]:ptr[i+1]] }
		has := func(i, j int) bool {
			for _, v := range neighbors(i) {
				if v == j {
					return true
				}
			}
			return false
		}
		for i := 0; i < nn; i++ {
			prev := -1
			for _, j := range neighbors(i) {
				if j == i {
					t.Fatalf("%v: self loop at %d", g, i)
				}
				if j <= prev {
					t.Fatalf("%v: neighbors of %d not sorted/unique", g, i)
				}
				prev = j
				if !has(j, i) {
					t.Fatalf("%v: edge %d→%d not symmetric", g, i, j)
				}
			}
		}
	}
}

func TestNodeGraphMatchesElements(t *testing.T) {
	g := UnitSquareTri(5)
	ptr, adj := g.NodeGraph()
	// Corner node 0 belongs to 2 triangles {0,1,6} is not one: elements at
	// cell (0,0) are (0,1,6) and (0,6,5). Neighbors of node 0: {1, 5, 6}.
	got := adj[ptr[0]:ptr[1]]
	want := []int{1, 5, 6}
	if len(got) != len(want) {
		t.Fatalf("neighbors of 0 = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("neighbors of 0 = %v, want %v", got, want)
		}
	}
}

func TestPlateWithHole(t *testing.T) {
	g := PlateWithHole(24)
	if err := g.Check(); err != nil {
		t.Fatal(err)
	}
	// All elements keep positive area and no node is inside the hole.
	for e := 0; e < g.NumElems(); e++ {
		if triArea(g, g.Elem(e)) <= 1e-14 {
			t.Fatalf("degenerate element %d", e)
		}
	}
	for n := 0; n < g.NumNodes(); n++ {
		c := g.Coord(n)
		if math.Hypot(c[0]-0.5, c[1]-0.5) < 0.22-1e-9 {
			t.Fatalf("node %d inside the hole: %v", n, c)
		}
	}
	// Total area: between the disc complement and the complement of the
	// enlarged (jagged, lattice-following) hole.
	var total float64
	for e := 0; e < g.NumElems(); e++ {
		total += triArea(g, g.Elem(e))
	}
	h := 1.0 / 23
	discOut := 1 - math.Pi*0.22*0.22
	jaggedOut := 1 - math.Pi*(0.22+2*h)*(0.22+2*h)
	if total > discOut+1e-9 || total < jaggedOut {
		t.Fatalf("area %v, want in [%v, %v]", total, jaggedOut, discOut)
	}
	// Boundary must include both the outer square and the (polygonal) hole
	// rim, whose nodes sit within two cells of the nominal radius.
	onB := g.BoundaryNodes()
	var outer, rim int
	for n := 0; n < g.NumNodes(); n++ {
		if !onB[n] {
			continue
		}
		c := g.Coord(n)
		if c[0] == 0 || c[0] == 1 || c[1] == 0 || c[1] == 1 {
			outer++
		} else if d := math.Hypot(c[0]-0.5, c[1]-0.5); d >= 0.22-1e-9 && d < 0.22+2*h {
			rim++
		} else {
			t.Fatalf("boundary node %d at %v is on neither boundary component", n, c)
		}
	}
	if outer == 0 || rim == 0 {
		t.Fatalf("boundary components missing: outer=%d rim=%d", outer, rim)
	}
}

func TestPlateWithHoleDeterministic(t *testing.T) {
	a, b := PlateWithHole(16), PlateWithHole(16)
	if a.NumNodes() != b.NumNodes() || a.NumElems() != b.NumElems() {
		t.Fatal("non-deterministic sizes")
	}
	for i := range a.X {
		if a.X[i] != b.X[i] {
			t.Fatal("non-deterministic coordinates")
		}
	}
}

func TestHashJitterRange(t *testing.T) {
	f := func(n uint16) bool {
		x, y := hashJitter(int(n))
		return x >= -1 && x < 1 && y >= -1 && y < 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestMeshCheckRejectsBadMeshes(t *testing.T) {
	bad := &Mesh{Dim: 2, NPE: 3, X: []float64{0, 0, 1, 0, 0, 1}, Elems: []int32{0, 1, 3}}
	if err := bad.Check(); err == nil {
		t.Error("out-of-range node id accepted")
	}
	bad2 := &Mesh{Dim: 2, NPE: 3, X: []float64{0, 0, 1, 0, 0, 1}, Elems: []int32{0, 1, 1}}
	if err := bad2.Check(); err == nil {
		t.Error("repeated node id accepted")
	}
	bad3 := &Mesh{Dim: 2, NPE: 4}
	if err := bad3.Check(); err == nil {
		t.Error("wrong NPE accepted")
	}
}

func TestMeshString(t *testing.T) {
	if s := UnitSquareTri(2).String(); s != "Mesh{2D tri, 4 nodes, 2 elems}" {
		t.Fatalf("String() = %q", s)
	}
	if s := UnitCubeTet(2).String(); s != "Mesh{3D tet, 8 nodes, 6 elems}" {
		t.Fatalf("String() = %q", s)
	}
}

func TestFacetCanonicalization(t *testing.T) {
	// newFacet3 must sort any input order identically.
	want := [3]int{1, 2, 3}
	for _, in := range [][3]int{{1, 2, 3}, {3, 2, 1}, {2, 3, 1}, {3, 1, 2}, {2, 1, 3}, {1, 3, 2}} {
		if got := newFacet3(in[0], in[1], in[2]); got != want {
			t.Fatalf("newFacet3(%v) = %v", in, got)
		}
	}
	if got := newFacet2(5, 2); got != [3]int{2, 5, -1} {
		t.Fatalf("newFacet2 = %v", got)
	}
	// sortedNodes, which BoundaryNodes reads an element's facets from, must
	// do the same for every order of a triangle's and a tetrahedron's nodes.
	for _, n := range []int{3, 4} {
		want := [4]int{2, 5, 7, -1}
		if n == 4 {
			want[3] = 9
		}
		var visit func(el []int32, k int)
		visit = func(el []int32, k int) {
			if k == n {
				if got := sortedNodes(el); got != want {
					t.Fatalf("sortedNodes(%v) = %v, want %v", el, got, want)
				}
				return
			}
			for i := k; i < n; i++ {
				el[k], el[i] = el[i], el[k]
				visit(el, k+1)
				el[k], el[i] = el[i], el[k]
			}
		}
		visit([]int32{2, 5, 7, 9}[:n], 0)
	}
}

// Node ids are held in 32 bits: a generator asked for more nodes panics
// naming the limit before it allocates, and Check refuses such a mesh with
// the same error (checked here on the count, which a mesh of that size
// would need 16 GiB of coordinates to show).
func TestNodeCountGuard(t *testing.T) {
	for name, build := range map[string]func(){
		"UnitSquareTri": func() { UnitSquareTri(46341) },      // 46341² > 2³¹ − 1
		"UnitCubeTet":   func() { UnitCubeTet(1291) },         // 1291³ > 2³¹ − 1
		"QuarterRing":   func() { QuarterRing(46341, 46341) }, // as the square
		"PlateWithHole": func() { PlateWithHole(46341) },      // through its square
	} {
		func() {
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, "2147483647") {
					t.Errorf("%s: panic %q, want one naming the limit", name, msg)
				}
			}()
			build()
		}()
	}
	if err := nodeCountErr("Check", math.MaxInt32); err != nil {
		t.Errorf("at the limit: %v", err)
	}
	if err := nodeCountErr("Check", math.MaxInt32+1); err == nil || !strings.Contains(err.Error(), "2147483647") {
		t.Errorf("past the limit: %v, want an error naming it", err)
	}
	if err := UnitCubeTet(3).Check(); err != nil {
		t.Errorf("a small mesh: %v", err)
	}
}
