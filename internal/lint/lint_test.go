package lint

import (
	"bufio"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// loadFixture loads one fixture package under testdata/src.
func loadFixture(t *testing.T, l *Loader, rel string) *Package {
	t.Helper()
	p, err := l.LoadDir(filepath.Join("testdata", "src", rel))
	if err != nil {
		t.Fatalf("loading fixture %s: %v", rel, err)
	}
	return p
}

func newTestLoader(t *testing.T) *Loader {
	t.Helper()
	l, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	return l
}

// wantLines scans a fixture package's files for "// WANT <analyzer>"
// markers and returns file:line keys.
func wantLines(t *testing.T, p *Package, analyzer string) []string {
	t.Helper()
	var want []string
	marker := "// WANT " + analyzer
	for _, f := range p.Files {
		name := p.Fset.Position(f.Pos()).Filename
		fh, err := os.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(fh)
		for line := 1; sc.Scan(); line++ {
			if strings.Contains(sc.Text(), marker) {
				want = append(want, keyOf(name, line))
			}
		}
		if err := fh.Close(); err != nil {
			t.Fatal(err)
		}
	}
	sort.Strings(want)
	return want
}

func keyOf(file string, line int) string {
	return filepath.Base(file) + ":" + strings.Repeat("0", 0) + itoa(line)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

func analyzerByName(t *testing.T, name string) *Analyzer {
	t.Helper()
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	t.Fatalf("no analyzer named %q", name)
	return nil
}

// TestAnalyzerFixtures checks, for each analyzer, that every marked line
// of its positive fixture is flagged (and nothing else), and that its
// negative fixture is completely silent.
func TestAnalyzerFixtures(t *testing.T) {
	l := newTestLoader(t)
	for _, name := range []string{"floatcmp", "dimguard", "sharedwrite", "errdrop"} {
		t.Run(name, func(t *testing.T) {
			a := analyzerByName(t, name)

			pos := loadFixture(t, l, filepath.Join(name, "positive"))
			var got []string
			for _, d := range a.Run(pos) {
				got = append(got, keyOf(d.Pos.Filename, d.Pos.Line))
			}
			sort.Strings(got)
			want := wantLines(t, pos, name)
			if len(want) == 0 {
				t.Fatalf("positive fixture has no WANT markers")
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("positive fixture: got diagnostics at %v, want %v", got, want)
			}

			neg := loadFixture(t, l, filepath.Join(name, "negative"))
			if ds := a.Run(neg); len(ds) != 0 {
				t.Errorf("negative fixture: unexpected diagnostics: %v", ds)
			}
		})
	}

	// determinism is the in-function half of detaint: each kernel
	// fixture package alone, without the call graph, so only a source
	// inside the function itself can be reported.
	t.Run("determinism", func(t *testing.T) {
		var got, want []string
		for _, rel := range []string{"fem", "ilu"} {
			p := loadFixture(t, l, filepath.Join("detaint", "positive", "internal", rel))
			for _, d := range localSources(p) {
				got = append(got, keyOf(d.Pos.Filename, d.Pos.Line))
			}
			want = append(want, wantLines(t, p, "detaint")...)
		}
		sort.Strings(got)
		sort.Strings(want)
		if len(want) == 0 {
			t.Fatalf("positive fixture has no WANT markers")
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("positive fixture: got diagnostics at %v, want %v", got, want)
		}

		neg := loadFixture(t, l, filepath.Join("detaint", "negative", "internal", "fem"))
		if ds := localSources(neg); len(ds) != 0 {
			t.Errorf("negative fixture: unexpected diagnostics: %v", ds)
		}
	})
}

// TestIgnoreConvention checks that a well-formed //lint:ignore (own-line
// and trailing forms) suppresses its diagnostic, and that a reason-less
// one is reported as malformed while suppressing nothing.
func TestIgnoreConvention(t *testing.T) {
	l := newTestLoader(t)
	p := loadFixture(t, l, "ignore")
	ds := RunPackage(p, []*Analyzer{FloatCmp})

	byAnalyzer := map[string]int{}
	for _, d := range ds {
		byAnalyzer[d.Analyzer]++
	}
	if byAnalyzer["lint"] != 1 {
		t.Errorf("want exactly 1 malformed-ignore diagnostic, got %d (%v)", byAnalyzer["lint"], ds)
	}
	// Only the comparison under the malformed ignore may survive.
	if byAnalyzer["floatcmp"] != 1 {
		t.Errorf("want exactly 1 surviving floatcmp diagnostic, got %d (%v)", byAnalyzer["floatcmp"], ds)
	}
	for _, d := range ds {
		if d.Analyzer == "floatcmp" && !strings.Contains(textOfLine(t, d), "MissingReason") {
			// The surviving diagnostic must belong to MissingReason's body;
			// cheap structural check: it sits after the malformed comment.
			if d.Pos.Line < 20 {
				t.Errorf("surviving floatcmp diagnostic at unexpected position %v", d.Pos)
			}
		}
	}
}

// textOfLine fetches the flagged source line (test diagnostic aid).
func textOfLine(t *testing.T, d Diagnostic) string {
	t.Helper()
	data, err := os.ReadFile(d.Pos.Filename)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(data), "\n")
	if d.Pos.Line-1 < len(lines) {
		return lines[d.Pos.Line-1]
	}
	return ""
}

// TestRepoPackagesClean locks in the tentpole acceptance criterion at the
// unit level: the suite stays silent on the repository's core numeric
// packages (the full sweep is cmd/parapre-lint in CI).
func TestRepoPackagesClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the stdlib from source; skipped in -short")
	}
	l := newTestLoader(t)
	for _, rel := range []string{"internal/sparse", "internal/par", "internal/krylov", "internal/dsys"} {
		p, err := l.LoadDir(filepath.Join(l.ModuleRoot, rel))
		if err != nil {
			t.Fatalf("loading %s: %v", rel, err)
		}
		if ds := RunPackage(p, All()); len(ds) != 0 {
			t.Errorf("%s: unexpected diagnostics:", rel)
			for _, d := range ds {
				t.Errorf("  %s", d)
			}
		}
	}
}

// TestLoaderBuildTags checks that the default tag set excludes
// paranoid-tagged files and that enabling the tag flips the selection.
func TestLoaderBuildTags(t *testing.T) {
	l := newTestLoader(t)
	names, err := l.selectFiles(filepath.Join(l.ModuleRoot, "internal", "paranoid"))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if n == "enabled_on.go" {
			t.Errorf("default tag set must exclude enabled_on.go, got %v", names)
		}
	}

	lp, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	lp.Tags["paranoid"] = true
	names, err = lp.selectFiles(filepath.Join(lp.ModuleRoot, "internal", "paranoid"))
	if err != nil {
		t.Fatal(err)
	}
	onSeen, offSeen := false, false
	for _, n := range names {
		onSeen = onSeen || n == "enabled_on.go"
		offSeen = offSeen || n == "enabled_off.go"
	}
	if !onSeen || offSeen {
		t.Errorf("paranoid tag set: want enabled_on.go and not enabled_off.go, got %v", names)
	}
}
