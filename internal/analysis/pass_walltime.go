package analysis

import (
	"go/ast"
)

// Deterministic packages run on virtual time; a single wall-clock read makes
// a run irreproducible (and makes the degraded-telemetry and scalability
// timings untestable). Code that legitimately needs host timings receives a
// clock.Clock; time.Now lives only behind clock.Wall, under an explicit
// //vet:allow directive.

// wallRestricted lists the module-relative package prefixes that must stay
// wall-clock-free. The same list scopes the interprocedural flow passes
// (walltime-flow, rand-flow): these are the packages whose behavior must be
// a pure function of configuration and seed. cmd/ and examples/ stay outside
// the list — they are entry points that may read the clock — but the flow
// passes still protect against them laundering time back into this scope,
// because any *call* from a listed package into such a helper is flagged.
var wallRestricted = []string{
	"internal/sim",
	"internal/core",
	"internal/stats",
	"internal/metrics",
	"internal/telemetry",
	"internal/traces",
	"internal/eval",
	"internal/report",
	"internal/baselines",
	"internal/arena",
	"internal/chaos",
	"internal/load",
	"internal/apps",
	"internal/clock",
	"internal/parallel",
	"internal/stream",
	"internal/serve",
}

// deterministicPkg reports whether pkg is in the wall-clock-restricted
// (deterministic) scope — shared by walltime and the flow passes.
func deterministicPkg(mod *Module, pkg *Package) bool {
	for _, prefix := range wallRestricted {
		if mod.pkgUnder(pkg, prefix) {
			return true
		}
	}
	return false
}

// wallSelectors are the time-package selectors that read or react to the
// host clock. Duration arithmetic and constants stay legal.
var wallSelectors = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"Tick":      true,
	"NewTicker": true,
	"NewTimer":  true,
	"After":     true,
	"AfterFunc": true,
}

func wallTimeAnalyzer() *Analyzer {
	a := &Analyzer{
		Name: "walltime",
		Doc:  "forbids wall-clock reads (time.Now & friends) in deterministic packages; inject a clock.Clock",
	}
	a.Run = func(p *Pass) {
		if !deterministicPkg(p.Module, p.Pkg) {
			return
		}
		p.walkFiles(func(file *ast.File, relName string) {
			ast.Inspect(file, func(n ast.Node) bool {
				sel, isSel := n.(*ast.SelectorExpr)
				if !isSel {
					return true
				}
				pkgPath, name, ok := pkgSelector(p.Pkg, file, sel)
				if !ok || pkgPath != "time" || !wallSelectors[name] {
					return true
				}
				p.Reportf(sel.Pos(), "time.%s reads the wall clock in deterministic package %s; inject a clock.Clock (internal/clock) instead", name, p.Pkg.ImportPath)
				return true
			})
		})
	}
	return a
}
