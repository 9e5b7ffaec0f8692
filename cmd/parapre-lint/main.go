// Command parapre-lint runs the project's static-analysis suite over Go
// packages in this module. It is stdlib-only (go/parser + go/types with
// a source importer) so it needs no tool dependencies beyond the Go
// toolchain itself.
//
// Two analyzer suites run, on every tag set:
//
//   - the syntactic per-package suite (floatcmp, dimguard, sharedwrite,
//     errdrop) over the named packages;
//   - the interprocedural program suite (detaint, errtype, waitleak) over
//     the named packages and their module-internal dependencies.
//
// Usage:
//
//	go run ./cmd/parapre-lint ./...
//	go run ./cmd/parapre-lint -tags paranoid ./...
//	go run ./cmd/parapre-lint -only detaint ./internal/sparse ./internal/krylov
//	go run ./cmd/parapre-lint -list
//
// Findings that are intentional are suppressed in source with a
// documented directive:
//
//	//lint:ignore <analyzer>[,<analyzer>] <reason>
//
// placed on the flagged line or on its own line directly above. A
// directive in an analyzed package that suppresses nothing is itself
// reported (unusedignore), as is one without a reason.
//
// Exit status is 0 when the run has no finding, 1 when it has, and 2 on
// usage or load errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"parapre/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(argv []string) int {
	fs := flag.NewFlagSet("parapre-lint", flag.ContinueOnError)
	var (
		tags    = fs.String("tags", "", "comma-separated build tags to enable (e.g. paranoid)")
		list    = fs.Bool("list", false, "list analyzers and exit")
		only    = fs.String("only", "", "comma-separated analyzer names to run (default: all)")
		verbose = fs.Bool("v", false, "print each package as it is checked")
	)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: parapre-lint [flags] <packages>\n\n")
		fmt.Fprintf(fs.Output(), "Packages are directory paths relative to the module root; a\n")
		fmt.Fprintf(fs.Output(), "trailing /... recurses (testdata, vendor and hidden dirs are skipped).\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(argv); err != nil {
		return 2
	}

	analyzers := lint.All()
	progAnalyzers := lint.AllProgram()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		for _, a := range progAnalyzers {
			fmt.Printf("%-12s %s (interprocedural)\n", a.Name, a.Doc)
		}
		return 0
	}
	if *only != "" {
		analyzers, progAnalyzers = selectAnalyzers(*only)
		if analyzers == nil && progAnalyzers == nil {
			fmt.Fprintf(os.Stderr, "parapre-lint: unknown analyzer in -only=%s\n", *only)
			return 2
		}
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		fs.Usage()
		return 2
	}

	loader, err := lint.NewLoader(".")
	if err != nil {
		fmt.Fprintf(os.Stderr, "parapre-lint: %v\n", err)
		return 2
	}
	for _, t := range strings.Split(*tags, ",") {
		if t = strings.TrimSpace(t); t != "" {
			loader.Tags[t] = true
		}
	}

	dirs, err := loader.ExpandPatterns(patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "parapre-lint: %v\n", err)
		return 2
	}
	if len(dirs) == 0 {
		fmt.Fprintf(os.Stderr, "parapre-lint: no packages match %s\n", strings.Join(patterns, " "))
		return 2
	}

	var pkgs []*lint.Package
	targetDirs := map[string]bool{}
	for _, dir := range dirs {
		pkg, err := loader.LoadDir(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "parapre-lint: %v\n", err)
			return 2
		}
		if *verbose {
			fmt.Fprintf(os.Stderr, "checking %s\n", pkg.Path)
		}
		pkgs = append(pkgs, pkg)
		targetDirs[pkg.Dir] = true
	}

	// One shared suppression index across every loaded package (targets
	// plus module-internal dependencies): interprocedural findings can
	// land in dependency files, and their directives must be honored.
	ig, diags := lint.CollectIgnores(loader.Loaded(), lint.KnownAnalyzerNames())

	ranAnalyzers := map[string]bool{"lint": true}
	for _, p := range pkgs {
		diags = append(diags, lint.RunPackageWith(p, analyzers, ig)...)
	}
	for _, a := range analyzers {
		ranAnalyzers[a.Name] = true
	}

	if len(progAnalyzers) > 0 {
		prog := lint.NewProgram(loader.Loaded())
		diags = append(diags, lint.RunProgram(prog, progAnalyzers, ig)...)
		for _, a := range progAnalyzers {
			ranAnalyzers[a.Name] = true
		}
	}

	// Unused-suppression audit: directives in the analyzed target
	// packages that suppressed nothing, for analyzers that actually ran.
	inScope := func(file string) bool { return targetDirs[filepath.Dir(file)] }
	diags = append(diags, ig.Unused(func(name string) bool { return ranAnalyzers[name] }, inScope)...)

	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "parapre-lint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

// selectAnalyzers resolves -only names across both suites. It returns
// (nil, nil) when any name is unknown.
func selectAnalyzers(names string) ([]*lint.Analyzer, []*lint.ProgramAnalyzer) {
	byName := map[string]*lint.Analyzer{}
	for _, a := range lint.All() {
		byName[a.Name] = a
	}
	progByName := map[string]*lint.ProgramAnalyzer{}
	for _, a := range lint.AllProgram() {
		progByName[a.Name] = a
	}
	var out []*lint.Analyzer
	var progOut []*lint.ProgramAnalyzer
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		switch {
		case byName[n] != nil:
			out = append(out, byName[n])
		case progByName[n] != nil:
			progOut = append(progOut, progByName[n])
		default:
			return nil, nil
		}
	}
	return out, progOut
}
