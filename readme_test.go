package mrcprm_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestREADMENamesExist holds README.md to the code: every mrcprm.Name it
// cites is a top-level declaration of the facade, and every -flag on a
// `go run ./cmd/<c>` line is registered by that command's main.go or by
// internal/cli. A deleted name or flag fails here until the README stops
// citing it.
func TestREADMENamesExist(t *testing.T) {
	data, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(data)

	facade := topLevelNames(t, "mrcprm.go")
	for _, m := range regexp.MustCompile(`\bmrcprm\.([A-Z]\w*)`).FindAllStringSubmatch(readme, -1) {
		if !facade[m[1]] {
			t.Errorf("README cites mrcprm.%s, which mrcprm.go does not declare", m[1])
		}
	}

	shared := flagNames(t, filepath.Join("internal", "cli", "cli.go"))
	cmdFlags := map[string]map[string]bool{}
	goRun := regexp.MustCompile(`go run \./cmd/(\w+)(.*)`)
	for _, line := range strings.Split(strings.ReplaceAll(readme, "\\\n", " "), "\n") {
		m := goRun.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		cmd, args := m[1], m[2]
		if i := strings.IndexAny(args, "#&|;`"); i >= 0 {
			args = args[:i]
		}
		if cmdFlags[cmd] == nil {
			cmdFlags[cmd] = flagNames(t, filepath.Join("cmd", cmd, "main.go"))
		}
		for _, tok := range strings.Fields(args) {
			if len(tok) < 2 || tok[0] != '-' || !isLetter(tok[1]) {
				continue
			}
			name, _, _ := strings.Cut(tok[1:], "=")
			if name != "version" && !cmdFlags[cmd][name] && !shared[name] {
				t.Errorf("README runs ./cmd/%s with -%s, which neither cmd/%s/main.go nor internal/cli registers",
					cmd, name, cmd)
			}
		}
	}
}

func isLetter(b byte) bool { return 'a' <= b && b <= 'z' || 'A' <= b && b <= 'Z' }

// topLevelNames parses one Go file and returns its package-level
// identifiers: functions, types, variables and constants.
func topLevelNames(t *testing.T, path string) map[string]bool {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				names[d.Name.Name] = true
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					names[s.Name.Name] = true
				case *ast.ValueSpec:
					for _, n := range s.Names {
						names[n.Name] = true
					}
				}
			}
		}
	}
	return names
}

// flagNames parses one Go file and returns the names its flag.* and
// fs.*Var calls register: the first string-literal argument of each call.
func flagNames(t *testing.T, path string) map[string]bool {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		recv, ok := sel.X.(*ast.Ident)
		if !ok || !(recv.Name == "flag" || recv.Name == "fs" && strings.HasSuffix(sel.Sel.Name, "Var")) {
			return true
		}
		for _, a := range call.Args {
			if lit, ok := a.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				if s, err := strconv.Unquote(lit.Value); err == nil {
					names[s] = true
				}
				break
			}
		}
		return true
	})
	return names
}
