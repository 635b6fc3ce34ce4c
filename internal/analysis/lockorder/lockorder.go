// Package lockorder records lock-acquisition order facts per function and
// reports inconsistent pairwise orderings across the concurrent service
// layer (internal/sweep, internal/serve) — the classic ABBA deadlock
// shape, caught statically. The supervisor, store, and engine already
// take multiple mutexes; a future refactor that nests them in opposite
// orders on two paths would deadlock only under load, long after CI.
//
// The analysis runs in three layers:
//
//  1. Per function, every sync.Mutex/sync.RWMutex acquisition is resolved
//     to a stable lock identity: the receiver type and field path for
//     struct-held locks ("serve.Service.mu") or the qualified name for
//     package-level locks ("serve.poolMu"). Distinct instances of one
//     type share an identity — lock discipline is a per-type property.
//
//  2. An Acquires object fact — the transitive set of lock identities a
//     function may take — is exported for every function and imported at
//     call sites, so "holds A, calls g, g locks B somewhere below" records
//     the pair (A, B) even when g lives in another package. Within a
//     package the summaries run to a fixed point; across packages the
//     facts flow along the dependency order RunAll guarantees.
//
//  3. A whole-program Finish pass folds every package's recorded pairs
//     (a Pairs package fact) into one order graph and reports each pair
//     observed in both directions, pointing every site of the rarer
//     direction at a witness site of the other — the actionable line to
//     change is almost always the minority one.
//
// The walk is syntactic and flow-insensitive over each body (statement
// order approximates execution order; deferred unlocks hold to function
// end), which can overreport across exclusive branches — a //lint:ignore
// with the invariant that makes the order safe is the escape hatch.
package lockorder

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"mgpucompress/internal/analysis"
)

// Analyzer is the lockorder check.
var Analyzer = &analysis.Analyzer{
	Name:      "lockorder",
	ID:        "MGL008",
	Doc:       "lock pairs must be acquired in one consistent order across internal/sweep and internal/serve",
	FactTypes: []analysis.Fact{(*Acquires)(nil), (*Pairs)(nil)},
	Run:       run,
	Finish:    finish,
}

// Acquires is the object fact exported for every function that may take a
// lock, directly or through its callees.
type Acquires struct {
	// Locks are the lock identities, sorted.
	Locks []string
}

// AFact marks Acquires as a fact type.
func (*Acquires) AFact() {}

// Pair is one ordered acquisition: Second was (or may be) taken while
// First was held.
type Pair struct {
	First  string
	Second string
	Pos    token.Pos
	Func   string
}

// Pairs is the package fact accumulating every ordered acquisition
// observed in one package.
type Pairs struct {
	List []Pair
}

// AFact marks Pairs as a fact type.
func (*Pairs) AFact() {}

// scoped reports whether pairs are recorded and reported for the package:
// the concurrent service layer. The simulation kernel runs on one goroutine
// and takes no locks.
func scoped(path string) bool {
	return analysis.PathHasSegment(path, "internal") &&
		(analysis.PathHasSegment(path, "sweep") ||
			analysis.PathHasSegment(path, "serve"))
}

// lockCall classifies a call as Lock/RLock (acquire) or Unlock/RUnlock
// (release) on a sync mutex, returning the lock identity.
func lockCall(pass *analysis.Pass, call *ast.CallExpr) (id string, acquire, release bool) {
	fn := analysis.Callee(pass, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", false, false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return "", false, false
	}
	rt := recv.Type()
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	named, ok := rt.(*types.Named)
	if !ok {
		return "", false, false
	}
	switch named.Obj().Name() {
	case "Mutex", "RWMutex":
	default:
		return "", false, false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false, false
	}
	id = lockIdentity(pass, sel.X)
	if id == "" {
		return "", false, false
	}
	switch fn.Name() {
	case "Lock", "RLock":
		return id, true, false
	case "Unlock", "RUnlock":
		return id, false, true
	}
	return "", false, false
}

// lockIdentity names the lock denoted by expr: "pkg.Type.fieldpath" when
// the base is a variable of a named type (any instance), "pkg.varname"
// for a package-level lock var. Locks it cannot name (map elements, call
// results) return "" and are not tracked.
func lockIdentity(pass *analysis.Pass, expr ast.Expr) string {
	var fields []string
	e := ast.Unparen(expr)
	for {
		sel, ok := e.(*ast.SelectorExpr)
		if !ok {
			break
		}
		fields = append([]string{sel.Sel.Name}, fields...)
		e = ast.Unparen(sel.X)
	}
	id, ok := e.(*ast.Ident)
	if !ok {
		return ""
	}
	obj := pass.ObjectOf(id)
	v, ok := obj.(*types.Var)
	if !ok {
		// A package qualifier: pkg.lockVar — fields[0] is the var name.
		if pkg, isPkg := obj.(*types.PkgName); isPkg && len(fields) >= 1 {
			return pkg.Imported().Name() + "." + strings.Join(fields, ".")
		}
		return ""
	}
	if v.Parent() != nil && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
		// Package-level lock (possibly with a field path below it).
		return v.Pkg().Name() + "." + strings.Join(append([]string{v.Name()}, fields...), ".")
	}
	// Local or receiver var: identify by its named type.
	t := v.Type()
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || len(fields) == 0 {
		return ""
	}
	return named.Obj().Pkg().Name() + "." + named.Obj().Name() + "." + strings.Join(fields, ".")
}

// funcState is the per-function working state of one package pass.
type funcState struct {
	fn       *types.Func
	body     *ast.BlockStmt
	direct   map[string]bool // locks acquired in this body
	callees  []*types.Func   // resolved callees, for the fixed point
	acquires map[string]bool // transitive closure
}

func run(pass *analysis.Pass) {
	var funcs []*funcState
	byObj := map[*types.Func]*funcState{}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.ObjectOf(fd.Name).(*types.Func)
			if !ok {
				continue
			}
			fs := &funcState{fn: fn, body: fd.Body, direct: map[string]bool{}, acquires: map[string]bool{}}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if id, acq, _ := lockCall(pass, call); acq && id != "" {
					fs.direct[id] = true
					fs.acquires[id] = true
					return true
				}
				if callee := analysis.Callee(pass, call); callee != nil {
					fs.callees = append(fs.callees, callee)
				}
				return true
			})
			funcs = append(funcs, fs)
			byObj[fn] = fs
		}
	}

	// Transitive acquires: imported facts seed out-of-package callees, the
	// local fixed point closes same-package chains.
	for changed := true; changed; {
		changed = false
		for _, fs := range funcs {
			for _, callee := range fs.callees {
				if local, ok := byObj[callee]; ok {
					for id := range local.acquires {
						if !fs.acquires[id] {
							fs.acquires[id] = true
							changed = true
						}
					}
					continue
				}
				var a Acquires
				if pass.ImportObjectFact(callee, &a) {
					for _, id := range a.Locks {
						if !fs.acquires[id] {
							fs.acquires[id] = true
							changed = true
						}
					}
				}
			}
		}
	}
	for _, fs := range funcs {
		if len(fs.acquires) == 0 {
			continue
		}
		locks := make([]string, 0, len(fs.acquires))
		for id := range fs.acquires {
			locks = append(locks, id)
		}
		sort.Strings(locks)
		pass.ExportObjectFact(fs.fn, &Acquires{Locks: locks})
	}

	// Pair recording: walk each scoped function linearly, tracking the
	// held set.
	if !scoped(pass.Pkg.Path()) {
		return
	}
	var pairs []Pair
	for _, fs := range funcs {
		pairs = append(pairs, recordPairs(pass, fs, byObj)...)
	}
	if len(pairs) > 0 {
		pass.ExportPackageFact(&Pairs{List: pairs})
	}
}

// recordPairs replays one body in source order and emits an ordered Pair
// for every lock (or lock-taking call) under a held lock.
func recordPairs(pass *analysis.Pass, fs *funcState, byObj map[*types.Func]*funcState) []Pair {
	// Deferred calls run at return: their unlocks must not release the
	// held set mid-walk, and their acquisitions pair against function-end
	// state no walk position models well — skip them entirely.
	deferred := map[*ast.CallExpr]bool{}
	ast.Inspect(fs.body, func(n ast.Node) bool {
		if d, ok := n.(*ast.DeferStmt); ok {
			deferred[d.Call] = true
		}
		return true
	})

	var pairs []Pair
	held := map[string]token.Pos{} // lock id → acquisition site
	var order []string             // held, in acquisition order
	name := fs.fn.Name()
	ast.Inspect(fs.body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || deferred[call] {
			return true
		}
		if id, acq, rel := lockCall(pass, call); id != "" && (acq || rel) {
			if rel {
				if _, ok := held[id]; ok {
					delete(held, id)
					for i, h := range order {
						if h == id {
							order = append(order[:i], order[i+1:]...)
							break
						}
					}
				}
				return true
			}
			for _, h := range order {
				if h != id {
					pairs = append(pairs, Pair{First: h, Second: id, Pos: call.Pos(), Func: name})
				}
			}
			if _, already := held[id]; !already {
				held[id] = call.Pos()
				order = append(order, id)
			}
			return true
		}
		if len(order) == 0 {
			return true
		}
		callee := analysis.Callee(pass, call)
		if callee == nil {
			return true
		}
		var acquired []string
		if local, ok := byObj[callee]; ok {
			for id := range local.acquires {
				acquired = append(acquired, id)
			}
			sort.Strings(acquired)
		} else {
			var a Acquires
			if pass.ImportObjectFact(callee, &a) {
				acquired = a.Locks
			}
		}
		for _, h := range order {
			for _, id := range acquired {
				if h != id {
					pairs = append(pairs, Pair{First: h, Second: id, Pos: call.Pos(), Func: name})
				}
			}
		}
		return true
	})
	return pairs
}

// finish folds every package's pairs into one order graph and reports
// inversions.
func finish(fin *analysis.Finish) {
	type key struct{ a, b string }
	sites := map[key][]Pair{}
	for _, pf := range fin.AllPackageFacts() {
		ps, ok := pf.Fact.(*Pairs)
		if !ok {
			continue
		}
		for _, p := range ps.List {
			sites[key{p.First, p.Second}] = append(sites[key{p.First, p.Second}], p)
		}
	}
	reported := map[key]bool{}
	keys := make([]key, 0, len(sites))
	for k := range sites {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].a != keys[j].a {
			return keys[i].a < keys[j].a
		}
		return keys[i].b < keys[j].b
	})
	for _, k := range keys {
		rev := key{k.b, k.a}
		if reported[k] || reported[rev] {
			continue
		}
		revSites, inverted := sites[rev]
		if !inverted {
			continue
		}
		reported[k], reported[rev] = true, true
		fwd := sites[k]
		// Report the minority direction against a witness from the
		// majority; on a tie report both directions.
		switch {
		case len(fwd) < len(revSites):
			reportDir(fin, fwd, revSites[0])
		case len(revSites) < len(fwd):
			reportDir(fin, revSites, fwd[0])
		default:
			reportDir(fin, fwd, revSites[0])
			reportDir(fin, revSites, fwd[0])
		}
	}
}

func reportDir(fin *analysis.Finish, minority []Pair, witness Pair) {
	w := fin.Position(witness.Pos)
	for _, p := range minority {
		fin.Reportf(p.Pos,
			"%s acquires %s while holding %s, but %s takes them in the opposite order (%s:%d); pick one order",
			p.Func, p.Second, p.First, witness.Func, w.Filename, w.Line)
	}
}
