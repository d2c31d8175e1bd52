package lint

import (
	"go/ast"
	"go/types"
)

// ClockDiscipline extends the determinism contract transitively: replay
// re-executes journaled mutations through the live code paths, so not
// just the annotated entry points but everything statically reachable
// from them must take time from the settable daemon clock, never from
// the host's. The analyzer builds a static call graph over the whole
// module (direct calls, method calls on concrete receivers, go/defer
// statements), floods from every //angstrom:deterministic function,
// and flags wall-clock and timer uses anywhere in the reachable set,
// naming the path that makes them reachable.
//
// Calls through interfaces (sim.Nower, actuator.Knob) have no static
// target and end the walk — which is the point: the interface IS the
// sanctioned clock boundary, and code that reaches time.Now without
// crossing it is journal-replay state leaking wall time.
var ClockDiscipline = &Analyzer{
	Name:   "clockdiscipline",
	Doc:    "flag wall-clock and timer use in code statically reachable from //angstrom:deterministic scopes",
	Module: true,
	Run:    runClockDiscipline,
}

// wallClockFuncs are the time package's process-clock reads and timer
// constructors. Pure arithmetic on time.Duration/time.Time values is
// clock-free and allowed.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "Tick": true, "NewTimer": true, "NewTicker": true, "AfterFunc": true,
}

func runClockDiscipline(pass *Pass) error {
	type fnode struct {
		pkg  *Package
		decl *ast.FuncDecl
	}
	nodes := make(map[string]fnode)    // key -> declaration
	edges := make(map[string][]string) // caller key -> callee keys
	for _, pkg := range pass.Module {
		funcDecls(pkg, func(decl *ast.FuncDecl, obj *types.Func, key string) {
			nodes[key] = fnode{pkg, decl}
			ast.Inspect(decl.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if f := callee(pkg.Info, call); f != nil && f.Pkg() != nil {
					edges[key] = append(edges[key], FuncKey(f))
				}
				return true
			})
		})
	}

	// Flood from every deterministic scope, remembering how each
	// function was reached so the report can name the path.
	reachedVia := make(map[string]string)
	var queue []string
	for _, pkg := range pass.Module {
		funcDecls(pkg, func(_ *ast.FuncDecl, _ *types.Func, key string) {
			if pass.Ann.Deterministic(pkg.Path, key) {
				if _, ok := reachedVia[key]; !ok {
					reachedVia[key] = ""
					queue = append(queue, key)
				}
			}
		})
	}
	for len(queue) > 0 {
		key := queue[0]
		queue = queue[1:]
		for _, callee := range edges[key] {
			if _, ok := reachedVia[callee]; ok {
				continue
			}
			if _, ok := nodes[callee]; !ok {
				continue // outside the module (stdlib)
			}
			reachedVia[callee] = key
			queue = append(queue, callee)
		}
	}

	for key, via := range reachedVia {
		n := nodes[key]
		info := n.pkg.Info
		ast.Inspect(n.decl.Body, func(node ast.Node) bool {
			call, ok := node.(*ast.CallExpr)
			if !ok {
				return true
			}
			f := callee(info, call)
			if f == nil || f.Pkg() == nil || f.Pkg().Path() != "time" || hasRecv(f) || !wallClockFuncs[f.Name()] {
				return true
			}
			pass.Reportf(call.Pos(), "time.%s in %s, which is reachable from deterministic scope%s: route time through the settable daemon clock (sim.Nower)",
				f.Name(), key, viaChain(reachedVia, via))
			return true
		})
	}
	return nil
}

// viaChain renders the reach path back to the nearest annotated root,
// capped so a deep chain stays readable.
func viaChain(reachedVia map[string]string, via string) string {
	if via == "" {
		return ""
	}
	s := " (via "
	for i := 0; via != "" && i < 4; i++ {
		if i > 0 {
			s += " <- "
		}
		s += via
		via = reachedVia[via]
	}
	return s + ")"
}
