package cluster

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestOnlyTheClockReadsTime holds the package to one clock: apart from
// clock.go, its non-test code reads no wall time, arms no timer, sleeps
// never and draws no random number, so the simulator's clock drives all of
// it. It fails on any use of time.Now, Since, Until, After, AfterFunc,
// NewTimer, NewTicker, Tick or Sleep, and on any import of math/rand.
func TestOnlyTheClockReadsTime(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	forbidden := map[string]bool{"Now": true, "Since": true, "Until": true, "After": true, "AfterFunc": true,
		"NewTimer": true, "NewTicker": true, "Tick": true, "Sleep": true}
	fset := token.NewFileSet()
	inClock := 0
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		timePkg := ""
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			switch {
			case path == "time":
				timePkg = "time"
				if imp.Name != nil {
					timePkg = imp.Name.Name
				}
			case strings.HasPrefix(path, "math/rand"):
				if name == "clock.go" {
					inClock++
					continue
				}
				t.Errorf("%v: imports %s: draw through the clock's Int63n", fset.Position(imp.Pos()), path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if x, ok := sel.X.(*ast.Ident); !ok || timePkg == "" || x.Name != timePkg || !forbidden[sel.Sel.Name] {
				return true
			}
			if name == "clock.go" {
				inClock++
				return true
			}
			t.Errorf("%v: time.%s: read time and arm timers through the clock", fset.Position(sel.Pos()), sel.Sel.Name)
			return true
		})
	}
	if inClock == 0 {
		t.Error("found no time or math/rand use in clock.go: the guard parsed the wrong files")
	}
}
