package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Library packages must return errors, not panic: the pipeline embeds the
// simulator and the learner in long-running services (serve, future
// ingestion paths) where a panic in a misconfigured topology takes down the
// process. Commands (package main) may panic, and Must*-prefixed helpers
// keep the familiar stdlib convention (regexp.MustCompile) — they exist for
// static initialization and tests, and the satellite convention is that
// production code never calls them.

func panicLibAnalyzer() *Analyzer {
	a := &Analyzer{
		Name: "paniclib",
		Doc:  "forbids panic() in library packages (commands and Must* helpers exempt); return errors instead",
	}
	a.Run = func(p *Pass) {
		if p.Pkg.Name == "main" {
			return
		}
		p.walkFiles(func(file *ast.File, relName string) {
			walkWithFuncs(file, func(n ast.Node, enclosing string) {
				call, isCall := n.(*ast.CallExpr)
				if !isCall {
					return
				}
				ident, isIdent := call.Fun.(*ast.Ident)
				if !isIdent || ident.Name != "panic" {
					return
				}
				// Confirm it is the builtin, not a shadowing local.
				if p.Pkg.Info != nil {
					if obj, ok := p.Pkg.Info.Uses[ident]; ok {
						if _, isBuiltin := obj.(*types.Builtin); !isBuiltin {
							return
						}
					}
				}
				if strings.HasPrefix(enclosing, "Must") {
					return
				}
				p.Reportf(call.Pos(), "panic in library package %s (func %s); return an error instead, or move the helper behind a Must* name", p.Pkg.ImportPath, enclosing)
			})
		})
	}
	return a
}
