package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// LockOrder enforces the coordinator's documented lock hierarchy from a
// declarative ordering table. Locks must be acquired in strictly
// increasing rank; acquiring a lock whose rank is less than or equal to
// any held lock's rank — directly, or by calling a function whose
// (transitive) acquire set contains one — is a violation.
//
// The hierarchy (see DESIGN.md §14):
//
//	rank 10  cluster.configEntry.lock  per-shape run lock (a 1-buffered
//	         channel: a send acquires, a receive releases)
//	rank 30  cluster.Coordinator.mu
//	rank 40  cluster.workerConn.mu, cluster.clientConn.mu  leaf locks
//
// The metrics package's locks are not in the table: it imports nothing
// from cluster and runs no caller code, so they nest only each other
// and can close no cycle with a coordinator lock. Closures are analyzed
// in their own context with nothing held. Branch bodies are analyzed
// with a copy of the held set; function facts carry each function's
// transitive acquire set across packages.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "enforce the coordinator's declarative lock hierarchy",
	Run:  runLockOrder,
}

type lockKey struct {
	pkg, typ, field string
}

type lockInfo struct {
	rank int
	name string
	ch   bool // a channel used as a lock: send acquires, receive releases
}

var lockOrderTable = map[lockKey]lockInfo{
	{"taskbench/internal/cluster", "configEntry", "lock"}: {10, "configEntry.lock (per-shape run lock)", true},
	{"taskbench/internal/cluster", "Coordinator", "mu"}:   {30, "cluster.Coordinator.mu", false},
	{"taskbench/internal/cluster", "workerConn", "mu"}:    {40, "cluster.workerConn.mu", false},
	{"taskbench/internal/cluster", "clientConn", "mu"}:    {40, "cluster.clientConn.mu", false},
}

type lockAcquireSet map[lockKey]bool

func runLockOrder(pass *Pass) error {
	w := &lockWalker{pass: pass, local: map[*types.Func]lockAcquireSet{}, localCalls: map[*types.Func][]*types.Func{}}

	// Phase 1: per-function direct acquire sets and the local call
	// graph, then the transitive closure (imported facts are already
	// complete, because imports are analyzed first).
	type declFunc struct {
		obj *types.Func
		fd  *ast.FuncDecl
	}
	var decls []declFunc
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if obj == nil {
				continue
			}
			decls = append(decls, declFunc{obj, fd})
			w.collectAcquires(obj, fd.Body)
		}
	}
	for changed := true; changed; {
		changed = false
		for _, d := range decls {
			set := w.local[d.obj]
			for _, callee := range w.localCalls[d.obj] {
				for k := range w.acquireSet(callee) {
					if !set[k] {
						set[k] = true
						changed = true
					}
				}
			}
		}
	}
	for _, d := range decls {
		pass.ExportFact(d.obj, w.local[d.obj])
	}

	// Phase 2: held-set walk with complete facts.
	for _, d := range decls {
		w.checkBody(d.fd.Body, map[lockKey]token.Pos{})
	}
	return nil
}

type lockWalker struct {
	pass       *Pass
	local      map[*types.Func]lockAcquireSet
	localCalls map[*types.Func][]*types.Func
}

// lockField resolves expr to a lock in the ordering table: a selector
// of a field listed there, e.g. c.mu or e.lock.
func (w *lockWalker) lockField(expr ast.Expr) (lockKey, bool) {
	sel, ok := ast.Unparen(expr).(*ast.SelectorExpr)
	if !ok {
		return lockKey{}, false
	}
	s, ok := w.pass.TypesInfo.Selections[sel]
	if !ok {
		return lockKey{}, false
	}
	if _, ok := s.Obj().(*types.Var); !ok {
		return lockKey{}, false
	}
	t := s.Recv()
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return lockKey{}, false
	}
	key := lockKey{named.Obj().Pkg().Path(), named.Obj().Name(), sel.Sel.Name}
	_, listed := lockOrderTable[key]
	return key, listed
}

// callTarget resolves a call to a statically-known function, skipping
// interface dispatch.
func (w *lockWalker) callTarget(call *ast.CallExpr) *types.Func {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := w.pass.TypesInfo.Uses[f].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel, ok := w.pass.TypesInfo.Selections[f]; ok {
			if m, ok := sel.Obj().(*types.Func); ok {
				if recv := m.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type().Underlying()) {
					return nil
				}
				return m
			}
			return nil
		}
		fn, _ := w.pass.TypesInfo.Uses[f.Sel].(*types.Func)
		return fn
	}
	return nil
}

// mutexOp classifies a call as a Lock/Unlock-style operation on a
// table-listed lock.
func (w *lockWalker) mutexOp(call *ast.CallExpr) (key lockKey, acquire, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return lockKey{}, false, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		acquire = true
	case "Unlock", "RUnlock":
		acquire = false
	default:
		return lockKey{}, false, false
	}
	key, listed := w.lockField(sel.X)
	return key, acquire, listed
}

// collectAcquires records every table-listed lock a function body may
// acquire (mutex Lock/RLock and run-lock channel sends), excluding
// nested closures (they run in their own context), plus the local
// static callees for the closure pass.
func (w *lockWalker) collectAcquires(obj *types.Func, body *ast.BlockStmt) {
	set := lockAcquireSet{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SendStmt:
			if key, ok := w.lockField(n.Chan); ok && lockOrderTable[key].ch {
				set[key] = true
			}
		case *ast.CallExpr:
			if key, acquire, ok := w.mutexOp(n); ok {
				if acquire {
					set[key] = true
				}
				return true
			}
			if fn := w.callTarget(n); fn != nil && w.pass.Session.InSession(fn.Pkg()) {
				w.localCalls[obj] = append(w.localCalls[obj], fn)
			}
		}
		return true
	})
	w.local[obj] = set
}

// acquireSet returns fn's transitive acquire set from the local map or
// the cross-package facts.
func (w *lockWalker) acquireSet(fn *types.Func) lockAcquireSet {
	if s, ok := w.local[fn]; ok {
		return s
	}
	if v, ok := w.pass.ImportFact(fn); ok {
		return v.(lockAcquireSet)
	}
	return nil
}

// checkAcquire reports a violation if taking key while any held lock
// has an equal or higher rank.
func (w *lockWalker) checkAcquire(pos token.Pos, key lockKey, held map[lockKey]token.Pos) {
	info := lockOrderTable[key]
	for h := range held {
		hinfo := lockOrderTable[h]
		switch {
		case h == key:
			w.pass.Reportf(pos, "lock order violation: acquiring %s while already holding it", info.name)
		case info.rank <= hinfo.rank:
			w.pass.Reportf(pos, "lock order violation: acquiring %s (rank %d) while holding %s (rank %d)",
				info.name, info.rank, hinfo.name, hinfo.rank)
		}
	}
}

// checkCall reports a violation if the callee's transitive acquire set
// conflicts with the held locks.
func (w *lockWalker) checkCall(call *ast.CallExpr, fn *types.Func, held map[lockKey]token.Pos) {
	for key := range w.acquireSet(fn) {
		info := lockOrderTable[key]
		for h := range held {
			if key == h || info.rank <= lockOrderTable[h].rank {
				w.pass.Reportf(call.Pos(), "lock order violation: calling %s, which acquires %s (rank %d), while holding %s (rank %d)",
					fn.Name(), info.name, info.rank, lockOrderTable[h].name, lockOrderTable[h].rank)
			}
		}
	}
}

// checkBody walks a statement list in source order, threading the held
// set through simple statements and giving each branch body a copy.
func (w *lockWalker) checkBody(body *ast.BlockStmt, held map[lockKey]token.Pos) {
	for _, s := range body.List {
		w.checkStmt(s, held)
	}
}

func copyHeld(held map[lockKey]token.Pos) map[lockKey]token.Pos {
	cp := make(map[lockKey]token.Pos, len(held))
	for k, v := range held {
		cp[k] = v
	}
	return cp
}

func (w *lockWalker) checkStmt(s ast.Stmt, held map[lockKey]token.Pos) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		w.checkBody(s, held)
	case *ast.IfStmt:
		if s.Init != nil {
			w.checkStmt(s.Init, held)
		}
		w.scanExpr(s.Cond, held)
		w.checkBody(s.Body, copyHeld(held))
		if s.Else != nil {
			w.checkStmt(s.Else, copyHeld(held))
		}
	case *ast.ForStmt:
		if s.Init != nil {
			w.checkStmt(s.Init, held)
		}
		if s.Cond != nil {
			w.scanExpr(s.Cond, held)
		}
		w.checkBody(s.Body, copyHeld(held))
	case *ast.RangeStmt:
		w.scanExpr(s.X, held)
		w.checkBody(s.Body, copyHeld(held))
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		w.checkBranches(s, held)
	case *ast.DeferStmt:
		// A deferred Unlock keeps the lock held through the rest of the
		// function — exactly what the linear walk already assumes — and
		// a deferred call runs under the locks held at return, which the
		// walk cannot see; both are left alone.
	case *ast.GoStmt:
		// The goroutine runs concurrently: no ordering edge. Closures
		// inside it are still analyzed (with an empty held set).
		w.scanExpr(s.Call, map[lockKey]token.Pos{})
	default:
		w.scanStmtExprs(s, held)
	}
}

// checkBranches analyzes each clause of a switch/select with its own
// copy of the held set.
func (w *lockWalker) checkBranches(s ast.Stmt, held map[lockKey]token.Pos) {
	var clauses []ast.Stmt
	switch s := s.(type) {
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.checkStmt(s.Init, held)
		}
		if s.Tag != nil {
			w.scanExpr(s.Tag, held)
		}
		clauses = s.Body.List
	case *ast.TypeSwitchStmt:
		clauses = s.Body.List
	case *ast.SelectStmt:
		clauses = s.Body.List
	}
	for _, c := range clauses {
		branch := copyHeld(held)
		switch c := c.(type) {
		case *ast.CaseClause:
			for _, stmt := range c.Body {
				w.checkStmt(stmt, branch)
			}
		case *ast.CommClause:
			if c.Comm != nil {
				// A comm-clause send on a run lock is a non-blocking
				// try-acquire: it establishes no wait-for edge, so it is
				// not checked, but the branch runs with the lock held.
				if send, ok := c.Comm.(*ast.SendStmt); ok {
					if key, ok := w.lockField(send.Chan); ok && lockOrderTable[key].ch {
						branch[key] = send.Pos()
					}
				} else {
					w.checkStmt(c.Comm, branch)
				}
			}
			for _, stmt := range c.Body {
				w.checkStmt(stmt, branch)
			}
		}
	}
}

// scanStmtExprs processes a simple statement: lock channel sends and
// receives, then every call expression inside it, in source order.
func (w *lockWalker) scanStmtExprs(s ast.Stmt, held map[lockKey]token.Pos) {
	if send, ok := s.(*ast.SendStmt); ok {
		if key, ok := w.lockField(send.Chan); ok && lockOrderTable[key].ch {
			w.checkAcquire(send.Pos(), key, held)
			held[key] = send.Pos()
			return
		}
	}
	ast.Inspect(s, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			w.analyzeFuncLit(n)
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				if key, ok := w.lockField(n.X); ok && lockOrderTable[key].ch {
					delete(held, key)
				}
			}
		case *ast.CallExpr:
			w.handleCall(n, held)
		}
		return true
	})
}

// scanExpr processes calls inside one expression.
func (w *lockWalker) scanExpr(e ast.Expr, held map[lockKey]token.Pos) {
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			w.analyzeFuncLit(n)
			return false
		case *ast.CallExpr:
			w.handleCall(n, held)
		}
		return true
	})
}

// handleCall applies one call's effect on the held set: mutex ops
// mutate it, and other static calls are checked against their acquire
// facts.
func (w *lockWalker) handleCall(call *ast.CallExpr, held map[lockKey]token.Pos) {
	if key, acquire, ok := w.mutexOp(call); ok {
		if acquire {
			w.checkAcquire(call.Pos(), key, held)
			held[key] = call.Pos()
		} else {
			delete(held, key)
		}
		return
	}
	if fn := w.callTarget(call); fn != nil {
		w.checkCall(call, fn, held)
	}
}

// analyzeFuncLit checks a closure body in its own context, starting
// with nothing held.
func (w *lockWalker) analyzeFuncLit(lit *ast.FuncLit) {
	w.checkBody(lit.Body, map[lockKey]token.Pos{})
}
