package lint

import (
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

// fixturePackageDirs returns every directory under root that holds .go
// files — one fixture may span several packages (a simulated kernel plus
// the helper package its taint flows out of).
func fixturePackageDirs(t *testing.T, root string) []string {
	t.Helper()
	var dirs []string
	seen := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && filepath.Ext(d.Name()) == ".go" {
			if dir := filepath.Dir(path); !seen[dir] {
				seen[dir] = true
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(dirs)
	return dirs
}

// loadProgramFixture loads every package of a multi-package fixture and
// assembles the Program the interprocedural analyzers run on.
func loadProgramFixture(t *testing.T, l *Loader, rel string) (*Program, []*Package) {
	t.Helper()
	root := filepath.Join("testdata", "src", rel)
	var pkgs []*Package
	for _, dir := range fixturePackageDirs(t, root) {
		p, err := l.LoadDir(dir)
		if err != nil {
			t.Fatalf("loading fixture package %s: %v", dir, err)
		}
		pkgs = append(pkgs, p)
	}
	if len(pkgs) == 0 {
		t.Fatalf("fixture %s has no packages", rel)
	}
	return NewProgram(pkgs), pkgs
}

func programAnalyzerByName(t *testing.T, name string) *ProgramAnalyzer {
	t.Helper()
	for _, a := range AllProgram() {
		if a.Name == name {
			return a
		}
	}
	t.Fatalf("no program analyzer named %q", name)
	return nil
}

// TestProgramAnalyzerFixtures mirrors TestAnalyzerFixtures for the
// interprocedural suite: every WANT-marked line of the positive fixture
// is flagged (and nothing else), the negative fixture is silent.
func TestProgramAnalyzerFixtures(t *testing.T) {
	l := newTestLoader(t)
	for _, name := range []string{"detaint", "errtype", "waitleak"} {
		t.Run(name, func(t *testing.T) {
			a := programAnalyzerByName(t, name)

			prog, pkgs := loadProgramFixture(t, l, filepath.Join(name, "positive"))
			var got []string
			for _, d := range a.Run(prog) {
				got = append(got, keyOf(d.Pos.Filename, d.Pos.Line))
			}
			sort.Strings(got)
			var want []string
			for _, p := range pkgs {
				want = append(want, wantLines(t, p, name)...)
			}
			sort.Strings(want)
			if len(want) == 0 {
				t.Fatalf("positive fixture has no WANT markers")
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("positive fixture: got diagnostics at %v, want %v", got, want)
			}

			neg, _ := loadProgramFixture(t, l, filepath.Join(name, "negative"))
			if ds := a.Run(neg); len(ds) != 0 {
				t.Errorf("negative fixture: unexpected diagnostics: %v", ds)
			}
		})
	}
}

// TestCallGraphBuilder pins the builder's resolution rules on a fixture
// exercising the call kinds, recursion, method calls, method values and
// indirect calls: every static call is an edge, a call through a
// function value is none.
func TestCallGraphBuilder(t *testing.T) {
	l := newTestLoader(t)
	p := loadFixture(t, l, "callgraph")
	g := buildCallGraph([]*Package{p})

	byName := map[string]*CGNode{}
	for fn, n := range g.Nodes {
		byName[fn.Name()] = n
	}
	for _, want := range []string{"Leaf", "Rec", "Caller", "M", "MethodCalls"} {
		if byName[want] == nil {
			t.Fatalf("no node for %s (have %d nodes)", want, len(g.Nodes))
		}
	}
	callees := func(name string) []string {
		var out []string
		for _, e := range byName[name].Out {
			out = append(out, e.Callee.Fn.Name())
		}
		return out
	}

	// Caller: a plain, a deferred and a spawned call, all to Leaf.
	if got := callees("Caller"); !reflect.DeepEqual(got, []string{"Leaf", "Leaf", "Leaf"}) {
		t.Errorf("Caller calls %v, want Leaf three times", got)
	}
	// Rec: a self edge.
	if got := callees("Rec"); !reflect.DeepEqual(got, []string{"Rec"}) {
		t.Errorf("Rec calls %v, want itself", got)
	}
	// MethodCalls: the method call is an edge; the method value and the
	// call through parameter f are not.
	if got := callees("MethodCalls"); !reflect.DeepEqual(got, []string{"M"}) {
		t.Errorf("MethodCalls calls %v, want M alone", got)
	}
}
