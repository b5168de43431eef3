// Checkreach fails when production code is reached by no binary. It
// builds every package of the module and perfbench with inlining
// off and the linker's dependency dump on. An exported function or
// method of a library package passes if a binary keeps its symbol, or if
// sarmany.go or another package's test names it (pkg.Name for a
// function, .Name for a method). An exported facade function passes if
// doc.go links it ([Name]) or README.md, an example or a root test names
// it (sarmany.Name). It prints each offender as file:line: name and exits
// 1; scripts/checkdocs.sh runs it as `go run ./scripts/checkreach`.
//
// Blind spot: once a binary links reflect's method lookup (html/template
// does, through internal/profile), the linker keeps every exported method
// of each type the binary converts to an interface, called or not.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
)

const module = "sarmany"

func main() {
	type pkg struct {
		importPath, name, dir string
		goFiles, testFiles    []string
	}
	var pkgs []pkg
	out := goCmd("list", "-f", `{{.ImportPath}}|{{.Name}}|{{.Dir}}|{{join .GoFiles " "}}|{{join .TestGoFiles " "}} {{join .XTestGoFiles " "}}`, "./...")
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		f := strings.Split(line, "|")
		pkgs = append(pkgs, pkg{importPath: f[0], name: f[1], dir: f[2], goFiles: strings.Fields(f[3]), testFiles: strings.Fields(f[4])})
	}

	build := []string{"build", "-o", os.DevNull, "-gcflags=" + module + "/...=-l", "-ldflags=-dumpdep"}
	reached := map[string]bool{}
	addReached(reached, goCmd(append(build, "./...")...))
	addReached(reached, goCmd(append([]string{"-C", "perfbench"}, append(build, ".")...)...))

	// named maps "pkg.Name" and ".Name" to the directories of the test
	// files, example programs and facade that name them.
	fset := token.NewFileSet()
	parse := func(file string) *ast.File {
		return must(parser.ParseFile(fset, file, nil, parser.SkipObjectResolution))
	}
	named := map[string][]string{}
	for _, p := range pkgs {
		files := p.testFiles
		if strings.HasPrefix(p.importPath, module+"/examples/") {
			files = append(files, p.goFiles...)
		}
		for _, name := range files {
			addNames(named, parse(filepath.Join(p.dir, name)), p.dir)
		}
	}
	facade := parse("sarmany.go")
	addNames(named, facade, "sarmany.go")

	wd, bad := must(os.Getwd()), 0
	report := func(pos token.Pos, name string) {
		p := fset.Position(pos)
		fmt.Printf("%s:%d: %s\n", strings.TrimPrefix(p.Filename, wd+string(filepath.Separator)), p.Line, name)
		bad++
	}
	for _, p := range pkgs {
		if p.name == "main" || p.importPath == module {
			continue
		}
		for _, name := range p.goFiles {
			for _, d := range parse(filepath.Join(p.dir, name)).Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok || !fn.Name.IsExported() {
					continue
				}
				syms, use := funcKeys(p.importPath, p.name, fn)
				if !slices.ContainsFunc(syms, func(s string) bool { return reached[s] }) &&
					!slices.ContainsFunc(named[use], func(dir string) bool { return dir != p.dir }) {
					report(fn.Pos(), p.name+strings.TrimPrefix(syms[len(syms)-1], p.importPath))
				}
			}
		}
	}

	// sarmany.go never names sarmany.F itself.
	doc, readme := string(must(os.ReadFile("doc.go"))), string(must(os.ReadFile("README.md")))
	for _, d := range facade.Decls {
		if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && fn.Name.IsExported() {
			n := fn.Name.Name
			if !strings.Contains(doc, "["+n+"]") && !strings.Contains(readme, module+"."+n+"(") && named[module+"."+n] == nil {
				report(fn.Pos(), module+"."+n)
			}
		}
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "checkreach: %d exported functions reached by no binary and named by no other package's test (facade: named nowhere outside sarmany.go)\n", bad)
		os.Exit(1)
	}
}

// funcKeys returns the linker symbols fn may appear under, its display
// form last, and the key other files name it by: "pkg.F" for a function
// path.F; ".M" for a method, whose symbol is path.(*T).M or, for a value
// receiver, also path.T.M.
func funcKeys(pkgPath, pkgName string, fn *ast.FuncDecl) (syms []string, use string) {
	name := fn.Name.Name
	if fn.Recv == nil {
		return []string{pkgPath + "." + name}, pkgName + "." + name
	}
	recv := typeArgs.ReplaceAllString(types.ExprString(fn.Recv.List[0].Type), "")
	ptr := pkgPath + ".(*" + strings.TrimPrefix(recv, "*") + ")." + name
	if recv[0] == '*' {
		return []string{ptr}, "." + name
	}
	return []string{ptr, pkgPath + "." + recv + "." + name}, "." + name
}

// typeArgs matches an innermost type-argument list.
var typeArgs = regexp.MustCompile(`\[[^\[\]]*\]`)

// addReached records each symbol of this module in a -dumpdep listing
// ("from -> to" lines) with its type arguments stripped
// (sim.(*Chan[go.shape.[]complex64]).Send is sim.(*Chan).Send), under
// each of its dotted prefixes, so a closure (F.func1) or a function's
// data symbol (F.arginfo1) marks F reached.
func addReached(reached map[string]bool, dump string) {
	for _, line := range strings.Split(dump, "\n") {
		from, to, _ := strings.Cut(line, " -> ")
		for _, sym := range []string{from, to} {
			if !strings.HasPrefix(sym, module) {
				continue
			}
			for s := ""; s != sym; {
				s, sym = sym, typeArgs.ReplaceAllString(sym, "")
			}
			base := strings.LastIndex(sym, "/") + 1
			parts := strings.Split(sym[base:], ".")
			for k := range parts {
				reached[sym[:base]+strings.Join(parts[:k+1], ".")] = true
			}
		}
	}
}

// addNames records under dir each selector in f as ".Name" and, when
// its operand is an identifier such as a package name, as "pkg.Name".
func addNames(named map[string][]string, f *ast.File, dir string) {
	add := func(key string) { named[key] = append(named[key], dir) }
	ast.Inspect(f, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			add("." + sel.Sel.Name)
			if id, ok := sel.X.(*ast.Ident); ok {
				add(id.Name + "." + sel.Sel.Name)
			}
		}
		return true
	})
}

// goCmd runs the go command and returns its combined output; the
// linker's dependency dump goes to standard error.
func goCmd(args ...string) string {
	out, err := exec.Command("go", args...).CombinedOutput()
	if err != nil {
		err = fmt.Errorf("go %s: %v\n%s", strings.Join(args[:2], " "), err, out)
	}
	return string(must(out, err))
}

// must exits with status 2 on err.
func must[T any](v T, err error) T {
	if err != nil {
		fmt.Fprintln(os.Stderr, "checkreach:", err)
		os.Exit(2)
	}
	return v
}
