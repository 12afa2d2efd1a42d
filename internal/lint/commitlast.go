package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// commitlast: HTTP handlers must validate before they commit.
//
// Once WriteHeader (or the first body write) runs, the status line and
// headers are on the wire; an error discovered afterwards can only be
// stitched onto an already-started body — the exact bug fixed twice
// before it was encoded here (PR 8's handleTrace committed `200
// text/csv` before checking the document had a trace, so a traceless
// run got a JSON error glued to a CSV preamble). The analyzer walks
// each handler-shaped function ((http.ResponseWriter, *http.Request)),
// tracks whether a commit can flow past each statement, and flags error
// writes — http.Error/http.NotFound, a second WriteHeader, or any use
// of the writer inside an error-check branch — that are reachable
// after a commit. Streaming writes after an intentional commit (a CSV
// loop) are not error writes and stay legal.

// AnalyzerCommitlast is the validate-before-commit handler check.
var AnalyzerCommitlast = &Analyzer{
	Name: "commitlast",
	Doc: "in net/http handlers, flag error responses (http.Error, a second WriteHeader, writer use in an " +
		"error branch) reachable after the response was already committed; validate first, commit last",
	Run: runCommitlast,
}

func runCommitlast(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var ftyp *ast.FuncType
			var body *ast.BlockStmt
			switch v := n.(type) {
			case *ast.FuncDecl:
				ftyp, body = v.Type, v.Body
			case *ast.FuncLit:
				ftyp, body = v.Type, v.Body
			default:
				return true
			}
			if body == nil {
				return true
			}
			if w := handlerWriter(pass, ftyp); w != nil {
				c := &commitChecker{pass: pass, w: w, reported: make(map[token.Pos]bool)}
				c.stmts(body.List, false)
			}
			return true
		})
	}
	return nil
}

// handlerWriter returns the http.ResponseWriter parameter object of a
// handler-shaped signature (one ResponseWriter and one *Request param),
// or nil.
func handlerWriter(pass *Pass, ftyp *ast.FuncType) types.Object {
	if ftyp.Params == nil {
		return nil
	}
	var writer types.Object
	var hasReq bool
	for _, field := range ftyp.Params.List {
		for _, name := range field.Names {
			obj := pass.TypesInfo.Defs[name]
			if obj == nil {
				continue
			}
			switch types.TypeString(obj.Type(), nil) {
			case "net/http.ResponseWriter":
				writer = obj
			case "*net/http.Request":
				hasReq = true
			}
		}
	}
	if !hasReq {
		return nil
	}
	return writer
}

// commitChecker carries the per-handler analysis state.
type commitChecker struct {
	pass     *Pass
	w        types.Object
	reported map[token.Pos]bool
}

// stmts analyzes a statement list given whether a commit has already
// escaped into it; it returns (committed at fall-through, list
// terminates). The flow model is deliberately simple — branches that
// end in return/panic don't leak their commits — which is exactly
// enough to separate commit-then-error from the legal patterns.
func (c *commitChecker) stmts(list []ast.Stmt, committed bool) (bool, bool) {
	for _, stmt := range list {
		var term bool
		committed, term = c.stmt(stmt, committed)
		if term {
			return committed, true
		}
	}
	return committed, false
}

func (c *commitChecker) stmt(stmt ast.Stmt, committed bool) (bool, bool) {
	switch v := stmt.(type) {
	case *ast.ReturnStmt:
		for _, e := range v.Results {
			committed = c.scanExpr(e, committed)
		}
		return committed, true
	case *ast.BranchStmt:
		// break/continue/goto leave this list; treat as terminating it.
		return committed, true
	case *ast.IfStmt:
		if v.Init != nil {
			committed, _ = c.stmt(v.Init, committed)
		}
		condCommitted := c.scanExpr(v.Cond, committed)
		if condCommitted && isFailureCond(v.Cond) {
			// Entering an error-check branch with the response committed:
			// any further touch of the writer in it is a late error write.
			c.flagWriterUse(v.Body)
		}
		thenOut, thenTerm := c.stmts(v.Body.List, condCommitted)
		elseOut, elseTerm := condCommitted, false
		hasElse := v.Else != nil
		switch e := v.Else.(type) {
		case *ast.BlockStmt:
			elseOut, elseTerm = c.stmts(e.List, condCommitted)
		case *ast.IfStmt:
			out, term := c.stmt(e, condCommitted)
			elseOut, elseTerm = out, term
		}
		out := condCommitted
		if !thenTerm && thenOut {
			out = true
		}
		if !elseTerm && elseOut {
			out = true
		}
		return out, thenTerm && elseTerm && hasElse
	case *ast.BlockStmt:
		return c.stmts(v.List, committed)
	case *ast.ForStmt:
		if v.Init != nil {
			committed, _ = c.stmt(v.Init, committed)
		}
		if v.Cond != nil {
			committed = c.scanExpr(v.Cond, committed)
		}
		bodyOut, _ := c.stmts(v.Body.List, committed)
		return committed || bodyOut, false
	case *ast.RangeStmt:
		committed = c.scanExpr(v.X, committed)
		bodyOut, _ := c.stmts(v.Body.List, committed)
		return committed || bodyOut, false
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		return c.switchLike(v, committed)
	case *ast.LabeledStmt:
		return c.stmt(v.Stmt, committed)
	case *ast.DeferStmt, *ast.GoStmt:
		return committed, false // deferred/concurrent writes: out of model
	case *ast.ExprStmt:
		return c.scanExpr(v.X, committed), false
	case *ast.AssignStmt:
		for _, e := range v.Rhs {
			committed = c.scanExpr(e, committed)
		}
		return committed, false
	case *ast.DeclStmt:
		committed = c.scanNode(v, committed)
		return committed, false
	default:
		if stmt == nil {
			return committed, false
		}
		return c.scanNode(stmt, committed), false
	}
}

// switchLike folds the clauses of a switch/type-switch/select.
func (c *commitChecker) switchLike(stmt ast.Stmt, committed bool) (bool, bool) {
	var clauses []ast.Stmt
	switch v := stmt.(type) {
	case *ast.SwitchStmt:
		if v.Init != nil {
			committed, _ = c.stmt(v.Init, committed)
		}
		if v.Tag != nil {
			committed = c.scanExpr(v.Tag, committed)
		}
		clauses = v.Body.List
	case *ast.TypeSwitchStmt:
		clauses = v.Body.List
	case *ast.SelectStmt:
		clauses = v.Body.List
	}
	out := committed
	allTerm := len(clauses) > 0
	hasDefault := false
	for _, cl := range clauses {
		var body []ast.Stmt
		switch cc := cl.(type) {
		case *ast.CaseClause:
			body = cc.Body
			if cc.List == nil {
				hasDefault = true
			}
		case *ast.CommClause:
			body = cc.Body
			if cc.Comm == nil {
				hasDefault = true
			}
		}
		clOut, clTerm := c.stmts(body, committed)
		if !clTerm && clOut {
			out = true
		}
		allTerm = allTerm && clTerm
	}
	return out, allTerm && hasDefault
}

// scanExpr visits the calls inside an expression in source order,
// updating and returning the committed state (and reporting late error
// writes found along the way). Function literals are skipped.
func (c *commitChecker) scanExpr(e ast.Expr, committed bool) bool {
	if e == nil {
		return committed
	}
	return c.scanNode(e, committed)
}

func (c *commitChecker) scanNode(n ast.Node, committed bool) bool {
	ast.Inspect(n, func(node ast.Node) bool {
		if _, isLit := node.(*ast.FuncLit); isLit {
			return false
		}
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch c.classify(call) {
		case commitWrite:
			committed = true
		case headerWrite:
			if committed {
				c.flag(call.Pos(), "WriteHeader after the response was already committed; the second status line is dropped — decide the status before the first write")
			}
			committed = true
		case errorWrite:
			if committed {
				c.flag(call.Pos(), "error response written after the response was already committed (headers are on the wire); validate before committing")
			}
			committed = true
		}
		return true
	})
	return committed
}

type callClass int

const (
	otherCall callClass = iota
	commitWrite
	headerWrite // w.WriteHeader: commit that must be first
	errorWrite  // http.Error / http.NotFound
)

// classify buckets a call by its effect on the response stream.
func (c *commitChecker) classify(call *ast.CallExpr) callClass {
	// Direct method calls on the writer.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok && c.pass.TypesInfo.Uses[id] == c.w {
			switch sel.Sel.Name {
			case "WriteHeader":
				return headerWrite
			case "Write":
				return commitWrite
			}
		}
	}
	fn := calleeFunc(c.pass.TypesInfo, call)
	if fn == nil || !c.argsMentionWriter(call) {
		return otherCall
	}
	name := fn.Name()
	if fn.Pkg() != nil {
		switch fn.Pkg().Path() {
		case "net/http":
			switch name {
			case "Error", "NotFound":
				return errorWrite
			case "Redirect", "ServeFile", "ServeContent":
				return commitWrite
			}
		case "fmt":
			if strings.HasPrefix(name, "Fprint") {
				return commitWrite
			}
		case "io":
			switch name {
			case "Copy", "CopyN", "CopyBuffer", "WriteString":
				return commitWrite
			}
		}
	}
	// Methods like trace.WriteCSV(w, stride): a Write* call handed
	// the writer commits the response.
	if strings.HasPrefix(name, "Write") {
		return commitWrite
	}
	return otherCall
}

// argsMentionWriter reports whether the writer parameter appears among
// the call's arguments.
func (c *commitChecker) argsMentionWriter(call *ast.CallExpr) bool {
	for _, arg := range call.Args {
		if id, ok := ast.Unparen(arg).(*ast.Ident); ok && c.pass.TypesInfo.Uses[id] == c.w {
			return true
		}
	}
	return false
}

// flagWriterUse reports every call touching the writer inside an
// error-check branch entered with the response already committed.
func (c *commitChecker) flagWriterUse(body *ast.BlockStmt) {
	ast.Inspect(body, func(node ast.Node) bool {
		if _, isLit := node.(*ast.FuncLit); isLit {
			return false
		}
		call, ok := node.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch c.classify(call) {
		case errorWrite, headerWrite:
			// The committed-state scan reports these with the precise
			// message; don't shadow it with the generic one.
			return true
		}
		if c.argsMentionWriter(call) || c.isWriterMethodCall(call) {
			c.flag(call.Pos(), "writer used in an error branch after the response was already committed; move validation before the first write")
			return false // the outermost call is enough
		}
		return true
	})
}

// isWriterMethodCall reports whether the call's receiver chain starts
// at the writer (w.WriteHeader(...), w.Header().Set(...)).
func (c *commitChecker) isWriterMethodCall(call *ast.CallExpr) bool {
	e := ast.Unparen(call.Fun)
	for {
		sel, ok := e.(*ast.SelectorExpr)
		if !ok {
			return false
		}
		switch x := ast.Unparen(sel.X).(type) {
		case *ast.Ident:
			return c.pass.TypesInfo.Uses[x] == c.w
		case *ast.CallExpr:
			e = ast.Unparen(x.Fun)
		case *ast.SelectorExpr:
			e = x
		default:
			return false
		}
	}
}

// flag reports once per position.
func (c *commitChecker) flag(pos token.Pos, msg string) {
	if c.reported[pos] {
		return
	}
	c.reported[pos] = true
	c.pass.Reportf(pos, "%s", msg)
}

// isFailureCond recognizes error-check conditions: any nil comparison
// in the condition tree, or a top-level negation (`if !ok`).
func isFailureCond(cond ast.Expr) bool {
	switch v := ast.Unparen(cond).(type) {
	case *ast.UnaryExpr:
		return v.Op == token.NOT
	}
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		if b, ok := n.(*ast.BinaryExpr); ok && (b.Op == token.NEQ || b.Op == token.EQL) {
			if isNilIdent(b.X) || isNilIdent(b.Y) {
				found = true
			}
		}
		return !found
	})
	return found
}

func isNilIdent(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}
