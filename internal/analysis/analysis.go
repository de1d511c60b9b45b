// Package analysis is a self-contained, stdlib-only re-implementation of the
// subset of golang.org/x/tools/go/analysis that drange-vet needs: an Analyzer
// runs over one type-checked package at a time and reports position-anchored
// Diagnostics.
//
// The repo deliberately has no third-party dependencies, so the framework,
// the package loader (load.go) and the analysistest harness are built on
// go/ast, go/types, go/importer and the go command alone. The API mirrors
// x/tools closely enough that the analyzers in the subpackages could be
// ported to the real framework by changing imports.
//
// # Annotation grammar
//
// The analyzers are driven by machine-readable comment directives. A
// directive is a single comment line of the form
//
//	//drange:<name> [args...]
//
// The space after // is optional ("// drange:guardedby mu" and
// "//drange:guardedby mu" are equivalent). The directives understood today:
//
//	// drange:guardedby <mu>     on a struct field: the field may only be
//	                             accessed while the mutex named <mu> is held.
//	//drange:holds <mu> [why]    on a function: the function runs with <mu>
//	                             held, or with exclusive access to the value
//	                             (e.g. construction before publication).
//	//drange:noalloc [amortized] on a function: the body must be free of
//	                             allocating constructs (see the noalloc
//	                             analyzer for the exact rules).
//	//drange:entropyflow-exempt <reason>
//	                             anywhere in a file: waives the entropyflow
//	                             analyzer for that file. The reason is
//	                             mandatory.
//	//drange:atomic              on a struct field: the field may be touched
//	                             only through sync/atomic operations (or is a
//	                             sync/atomic typed wrapper used by methods);
//	                             plain loads, stores and address escapes are
//	                             diagnostics (see the atomiccheck analyzer).
//	//drange:seedtaint-exempt <reason>
//	                             on a function: waives the seedtaint analyzer
//	                             for that function, which may then hand raw
//	                             (pre-health-test) device entropy to callers.
//	                             Reserved for the documented-raw ReadRaw tier;
//	                             the reason is mandatory.
//
// # Facts
//
// Analyzers that compose across package boundaries (seedtaint, atomiccheck)
// exchange per-package facts through the Pass's ImportFacts/ExportFacts
// hooks. See facts.go for the store and cmd/drange-vet for how the payloads
// piggyback on the vet driver's .vetx cache.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and command lines.
	Name string
	// Doc is the analyzer's documentation; the first line is a summary.
	Doc string
	// Run applies the analyzer to a single package.
	Run func(*Pass) error
}

// A Pass provides one analyzer with the syntax and types of one package and
// collects the diagnostics it reports.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// ImportFacts returns the serialized facts this analyzer exported when
	// it analyzed the dependency package with the given import path, or nil
	// if none were recorded. Nil when the driver does not thread facts
	// (plain RunPackage); analyzers must then degrade to per-package
	// conservative results.
	ImportFacts func(importPath string) []byte
	// ExportFacts records this package's serialized facts for dependent
	// packages. Nil when the driver does not thread facts.
	ExportFacts func(payload []byte)
	// FactsOnly is true when the driver needs only the exported facts for
	// this package (it is a dependency of the packages under analysis, not
	// itself under analysis). Analyzers should still call ExportFacts but
	// may skip diagnostic reporting.
	FactsOnly bool

	diagnostics []Diagnostic
}

// A Diagnostic is a finding anchored to a source position.
type Diagnostic struct {
	Pos      token.Pos
	End      token.Pos
	Analyzer string
	Message  string
}

// Report records a diagnostic.
func (p *Pass) Report(d Diagnostic) {
	d.Analyzer = p.Analyzer.Name
	p.diagnostics = append(p.diagnostics, d)
}

// Reportf records a diagnostic at the node's position.
func (p *Pass) Reportf(rng ast.Node, format string, args ...any) {
	p.Report(Diagnostic{
		Pos:     rng.Pos(),
		End:     rng.End(),
		Message: fmt.Sprintf(format, args...),
	})
}

// Diagnostics returns the diagnostics reported so far.
func (p *Pass) Diagnostics() []Diagnostic { return p.diagnostics }

// IsTestFile reports whether the file containing pos is a _test.go file.
func IsTestFile(fset *token.FileSet, pos token.Pos) bool {
	f := fset.File(pos)
	return f != nil && strings.HasSuffix(f.Name(), "_test.go")
}

// A Directive is one parsed //drange:<name> comment line.
type Directive struct {
	Name string   // e.g. "guardedby", "noalloc"
	Args []string // whitespace-split arguments, possibly empty
	Pos  token.Pos
}

// Directives parses the drange directives in a comment group. A nil group
// yields nil.
func Directives(cg *ast.CommentGroup) []Directive {
	if cg == nil {
		return nil
	}
	var out []Directive
	for _, c := range cg.List {
		text, ok := strings.CutPrefix(c.Text, "//")
		if !ok {
			continue // /* */ comments are not directives
		}
		// Accept both "//drange:x" and "// drange:x" (one optional space).
		text = strings.TrimPrefix(text, " ")
		rest, ok := strings.CutPrefix(text, "drange:")
		if !ok {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 || strings.ContainsAny(fields[0], ": ") {
			continue
		}
		out = append(out, Directive{Name: fields[0], Args: fields[1:], Pos: c.Pos()})
	}
	return out
}

// FuncDirective returns the first directive named name on the function's doc
// comment, or nil.
func FuncDirective(fd *ast.FuncDecl, name string) *Directive {
	for _, d := range Directives(fd.Doc) {
		if d.Name == name {
			return &d
		}
	}
	return nil
}

// FileDirective returns the first directive named name appearing in any
// comment of the file, or nil.
func FileDirective(f *ast.File, name string) *Directive {
	for _, cg := range f.Comments {
		for _, d := range Directives(cg) {
			if d.Name == name {
				return &d
			}
		}
	}
	return nil
}

// PkgPathIs reports whether path is pkg or ends in "/"+pkg. It is how
// analyzers match well-known repo packages so that testdata packages
// (e.g. "repro/internal/memctrl" under testdata/src) match too.
func PkgPathIs(path, pkg string) bool {
	return path == pkg || strings.HasSuffix(path, "/"+pkg)
}

// IsPkgIdent reports whether e is an identifier denoting the imported
// package with the given path (e.g. the "fmt" in fmt.Errorf).
func IsPkgIdent(info *types.Info, e ast.Expr, path string) bool {
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	return ok && pn.Imported().Path() == path
}
