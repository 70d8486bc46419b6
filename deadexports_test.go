package kbharvest

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// liveWithoutCallers names the exports under internal/ that no non-test
// code mentions but that stay on purpose. A bare name covers a method
// of that name on any type (an interface the method satisfies calls it);
// "pkg.Name" and "pkg.Type.Method" cover one declaration.
var liveWithoutCallers = map[string]string{
	"String":    "fmt.Stringer: fmt calls it",
	"Error":     "error: callers reach it through the interface",
	"ServeHTTP": "http.Handler: net/http calls it",
	"RoundTrip": "http.RoundTripper: http.Client calls it",
	"Read":      "io.Reader",
	"Write":     "io.Writer",
	"Close":     "io.Closer",
	"Flush":     "http.Flusher",
	"Timeout":   "net.Error: url.Error.Timeout asks the error it wraps",
	"Temporary": "net.Error: url.Error.Temporary asks the error it wraps",

	"rdf.TL":           "literal constructor the tests of many packages share",
	"rdf.Term.Equal":   "term comparison the tests of many packages share",
	"rdf.Triple.Equal": "triple comparison the tests of many packages share",
	"pipeline.Docs":    "the corpus as extraction docs, for the root extraction benchmarks",

	// faultkb is a test harness: the router's and shardkb's fault tests
	// stand its proxy in front of every replica.
	"faultkb.NewProxy":           "the fault-injecting reverse proxy",
	"faultkb.Injector.SetPlan":   "a fixed fault plan, e.g. a replica that drops everything",
	"faultkb.Injector.SetScript": "a request-counted fault schedule, e.g. a flapping replica",

	"experiments.ServingWorkload": "the serving store and query mix the router's and shardkb's tests check against",
}

// TestNoDeadExports fails for each exported top-level identifier or
// method declared under internal/ whose name no non-test Go file of the
// module, bench/ included, mentions outside its own declaration. The
// check goes by name alone: any use of the name anywhere counts, so it
// can miss a dead export but never flags a live one.
func TestNoDeadExports(t *testing.T) {
	type decl struct {
		key, name string
		method    bool
		pos       token.Pos
	}
	fset := token.NewFileSet()
	mentions := map[string]int{}
	var decls []decl
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				mentions[id.Name]++
			}
			return true
		})
		if !strings.HasPrefix(filepath.ToSlash(path), "internal/") {
			return nil
		}
		pkg := f.Name.Name
		add := func(id *ast.Ident, recv string) {
			if !id.IsExported() {
				return
			}
			key := pkg + "." + id.Name
			if recv != "" {
				key = pkg + "." + recv + "." + id.Name
			}
			decls = append(decls, decl{key: key, name: id.Name, method: recv != "", pos: id.Pos()})
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				add(d.Name, recvType(d))
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						add(s.Name, "")
					case *ast.ValueSpec:
						for _, n := range s.Names {
							add(n, "")
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]int{}
	for _, d := range decls {
		declared[d.name]++
	}
	var dead []string
	excused := map[string]bool{}
	for _, d := range decls {
		if mentions[d.name] > declared[d.name] {
			continue
		}
		if _, ok := liveWithoutCallers[d.key]; ok {
			excused[d.key] = true
			continue
		}
		if _, ok := liveWithoutCallers[d.name]; ok && d.method {
			continue
		}
		p := fset.Position(d.pos)
		dead = append(dead, fmt.Sprintf("%s:%d: %s", p.Filename, p.Line, d.key))
	}
	sort.Strings(dead)
	for _, s := range dead {
		t.Errorf("%s has no caller outside tests: call it from the program, or delete it", s)
	}
	for key := range liveWithoutCallers {
		if strings.Contains(key, ".") && !excused[key] {
			t.Errorf("liveWithoutCallers[%q] names nothing dead: drop the entry", key)
		}
	}
}

// recvType is the receiver's type name of a method, "" for a function.
func recvType(d *ast.FuncDecl) string {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return ""
	}
	typ := d.Recv.List[0].Type
	if s, ok := typ.(*ast.StarExpr); ok {
		typ = s.X
	}
	switch x := typ.(type) {
	case *ast.IndexExpr:
		typ = x.X
	case *ast.IndexListExpr:
		typ = x.X
	}
	if id, ok := typ.(*ast.Ident); ok {
		return id.Name
	}
	return "?"
}
