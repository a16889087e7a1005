// Package noalloc turns the repository's AllocsPerRun benchmarks into
// compile-time diagnostics: a function annotated `//stochlint:noalloc` in
// its doc comment is checked for constructs that can allocate on the
// steady-state path.
//
// The annotated functions are the per-event hot loops (compiled-kernel
// Step, FireAndRefresh, the fused threshold races, the hybrid's relay
// propagator) whose zero-allocation property the Monte Carlo throughput
// numbers rest on.
// The runtime AllocsPerRun tests remain the ground truth (escape analysis
// can prove some flagged constructs stack-allocated); this check is the
// fast static tripwire that fires in CI before a benchmark ever runs.
//
// Flagged constructs: make/new/append; slice, map and &-composite
// literals; map writes; closures (func literals and method values);
// string concatenation and string<->[]byte/[]rune conversions; implicit
// interface boxing at calls, assignments and returns; go and defer.
// panic arguments are exempt (a panicking hot path is already off the
// fast path). A provably non-escaping construct is exempted line-by-line
// with `//stochlint:allow alloc`, ideally citing the AllocsPerRun test
// that pins it.
//
// The check is interprocedural: allocation summaries are computed for
// every function in the module (package dataflow) and a call from an
// annotated function into a module-local callee whose closure may
// allocate is flagged at the call site with the witness chain. Callees
// that are themselves annotated //stochlint:noalloc are skipped — their
// own pass is the authoritative check of their body. An intentional
// amortized or non-escaping callee allocation is exempted at the call
// site with `//stochlint:allow alloc`.
package noalloc

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"stochsynth/internal/analysis"
	"stochsynth/internal/analysis/callgraph"
	"stochsynth/internal/analysis/dataflow"
)

// Analyzer is the noalloc check.
var Analyzer = &analysis.Analyzer{
	Name: "noalloc",
	Doc:  "flag allocating constructs in functions annotated //stochlint:noalloc",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !analysis.FuncAnnotated(fn, "noalloc") {
				continue
			}
			collect(pass.TypesInfo, fn, func(pos token.Pos, format string, args ...any) {
				if pass.Allowed(pos, "alloc") {
					return
				}
				pass.Reportf(pos, "//stochlint:noalloc %s: "+format,
					append([]any{fn.Name.Name}, args...)...)
			})
			checkCalls(pass, fn)
		}
	}
	return nil
}

// checkCalls flags calls from an annotated function into module-local
// callees whose call closure may allocate. Function literals are skipped
// (the literal itself is already flagged); annotated callees are skipped
// (their own check is authoritative).
func checkCalls(pass *analysis.Pass, fn *ast.FuncDecl) {
	g := callgraph.Of(pass.Prog)
	summaries := Summaries(pass.Prog)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, calleeFn := range g.SiteCallees(call) {
			callee := g.Node(calleeFn)
			if callee == nil || analysis.FuncAnnotated(callee.Decl, "noalloc") {
				continue
			}
			fact, ok := summaries[callee.Func]["alloc"]
			if !ok || pass.Allowed(call.Pos(), "alloc") {
				continue
			}
			pass.Reportf(call.Pos(), "//stochlint:noalloc %s: call to %s may allocate: %s at %s%s",
				fn.Name.Name, callee, fact.Desc, analysis.ShortPos(pass.Fset, fact.Pos), fact.ViaString())
		}
		return true
	})
}

type summariesKey struct{}

// Summaries returns module-wide allocation summaries: for every function
// in the program, whether its call closure contains an allocating
// construct (kind "alloc"), with a witness. Constructs carrying an
// `//stochlint:allow alloc` annotation contribute no fact.
func Summaries(prog *analysis.Program) map[*types.Func]dataflow.Facts {
	return prog.Memo(summariesKey{}, func() any {
		g := callgraph.Of(prog)
		return dataflow.Solve(g, func(n *callgraph.Node) []dataflow.Fact {
			if n.Decl.Body == nil {
				return nil
			}
			var facts []dataflow.Fact
			collect(n.Unit.Info, n.Decl, func(pos token.Pos, format string, args ...any) {
				if prog.Allowed(pos, "alloc") {
					return
				}
				facts = append(facts, dataflow.Fact{Kind: "alloc", Pos: pos, Desc: fmt.Sprintf(format, args...)})
			})
			return facts
		})
	}).(map[*types.Func]dataflow.Facts)
}

type checker struct {
	info *types.Info
	fn   *ast.FuncDecl
	emit func(pos token.Pos, format string, args ...any)
	// calledFuns holds every expression in call position, so method-value
	// closures (x.M used as a value) can be told apart from calls.
	calledFuns map[ast.Expr]bool
}

// collect reports every potentially allocating construct of fn's body to
// emit (unfiltered: allow annotations are the caller's concern).
func collect(info *types.Info, fn *ast.FuncDecl, emit func(token.Pos, string, ...any)) {
	c := &checker{info: info, fn: fn, emit: emit, calledFuns: map[ast.Expr]bool{}}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			c.calledFuns[call.Fun] = true
		}
		return true
	})
	ast.Inspect(fn.Body, c.visit)
}

func (c *checker) report(pos token.Pos, format string, args ...any) {
	c.emit(pos, format, args...)
}

func (c *checker) visit(n ast.Node) bool {
	info := c.info
	switch n := n.(type) {
	case *ast.CallExpr:
		return c.visitCall(n)
	case *ast.CompositeLit:
		t := info.TypeOf(n)
		if t == nil {
			return true
		}
		switch t.Underlying().(type) {
		case *types.Slice:
			c.report(n.Pos(), "slice literal allocates")
		case *types.Map:
			c.report(n.Pos(), "map literal allocates")
		}
	case *ast.UnaryExpr:
		if n.Op == token.AND {
			if _, ok := n.X.(*ast.CompositeLit); ok {
				c.report(n.Pos(), "&composite literal may escape to the heap")
			}
		}
	case *ast.FuncLit:
		c.report(n.Pos(), "closure may capture by reference and allocate")
		// Do not descend: the closure body runs under its own escape
		// analysis; one diagnostic at the literal is the actionable one.
		return false
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[n]; ok && sel.Kind() == types.MethodVal && !c.calledFuns[n] {
			c.report(n.Pos(), "method value allocates a bound-method closure")
		}
	case *ast.BinaryExpr:
		if n.Op == token.ADD && isString(info.TypeOf(n)) {
			c.report(n.Pos(), "string concatenation allocates")
		}
	case *ast.AssignStmt:
		c.visitAssign(n)
	case *ast.ReturnStmt:
		c.visitReturn(n)
	case *ast.GoStmt:
		c.report(n.Pos(), "go statement allocates a goroutine")
	case *ast.DeferStmt:
		c.report(n.Pos(), "defer may allocate (and delays the hot loop)")
	}
	return true
}

func (c *checker) visitCall(call *ast.CallExpr) bool {
	info := c.info
	// Builtins: append/make/new allocate; panic is exempt (cold path);
	// len/cap/copy/... are free.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "append":
				c.report(call.Pos(), "append may grow and reallocate the backing array")
			case "make":
				c.report(call.Pos(), "make allocates")
			case "new":
				c.report(call.Pos(), "new allocates")
			case "panic":
				return false // don't also flag boxing of the panic argument
			}
			return true
		}
	}
	// Conversions: string <-> []byte/[]rune copy, interface conversions box.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		to := tv.Type
		from := info.TypeOf(call.Args[0])
		if from != nil {
			if convAllocates(from, to) {
				c.report(call.Pos(), "conversion %s -> %s allocates a copy", from, to)
			}
			if isInterface(to) && !isInterface(from) && !isNilOrConst(info, call.Args[0]) {
				c.report(call.Pos(), "conversion to interface %s boxes the value", to)
			}
		}
		return true
	}
	// Ordinary calls: check argument boxing against the signature.
	sig, ok := info.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return true
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // passing an existing slice through: no box here
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		at := info.TypeOf(arg)
		if at == nil {
			continue
		}
		if isInterface(pt) && !isInterface(at) && !isNilOrConst(info, arg) {
			c.report(arg.Pos(), "passing %s as interface parameter boxes the value", at)
		}
	}
	if sig.Variadic() && !call.Ellipsis.IsValid() && len(call.Args) >= params.Len() {
		c.report(call.Pos(), "variadic call allocates the argument slice")
	}
	return true
}

func (c *checker) visitAssign(as *ast.AssignStmt) {
	info := c.info
	for i, lhs := range as.Lhs {
		if idx, ok := lhs.(*ast.IndexExpr); ok {
			if t := info.TypeOf(idx.X); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					c.report(as.Pos(), "map assignment may allocate")
				}
			}
		}
		if as.Tok == token.ADD_ASSIGN && isString(info.TypeOf(lhs)) {
			c.report(as.Pos(), "string concatenation allocates")
		}
		// Boxing on plain assignment into an interface-typed location.
		if as.Tok == token.ASSIGN && i < len(as.Rhs) && len(as.Lhs) == len(as.Rhs) {
			lt, rt := info.TypeOf(lhs), info.TypeOf(as.Rhs[i])
			if lt != nil && rt != nil && isInterface(lt) && !isInterface(rt) && !isNilOrConst(info, as.Rhs[i]) {
				c.report(as.Pos(), "assignment into interface %s boxes the value", lt)
			}
		}
	}
}

func (c *checker) visitReturn(ret *ast.ReturnStmt) {
	info := c.info
	results := c.fn.Type.Results
	if results == nil || len(ret.Results) == 0 {
		return
	}
	var resultTypes []types.Type
	for _, field := range results.List {
		t := info.TypeOf(field.Type)
		n := len(field.Names)
		if n == 0 {
			n = 1
		}
		for j := 0; j < n; j++ {
			resultTypes = append(resultTypes, t)
		}
	}
	if len(ret.Results) != len(resultTypes) {
		return // multi-value call return: nothing boxes here
	}
	for i, r := range ret.Results {
		rt := info.TypeOf(r)
		if rt != nil && isInterface(resultTypes[i]) && !isInterface(rt) && !isNilOrConst(info, r) {
			c.report(r.Pos(), "returning %s as interface boxes the value", rt)
		}
	}
}

func isString(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isInterface(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Interface)
	return ok
}

// isNilOrConst reports whether e is untyped nil or a compile-time
// constant (boxed constants are backed by static storage, not the heap).
func isNilOrConst(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok {
		return false
	}
	if tv.Value != nil || tv.IsNil() {
		return true
	}
	if b, ok := tv.Type.(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return true
	}
	return false
}

// convAllocates reports whether a conversion from -> to copies memory:
// string <-> []byte / []rune.
func convAllocates(from, to types.Type) bool {
	fs, ts := isString(from), isString(to)
	if fs == ts {
		return false
	}
	other := from
	if fs {
		other = to
	}
	sl, ok := other.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}
