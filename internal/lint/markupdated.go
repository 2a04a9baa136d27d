package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// MarkUpdated enforces the cached-transpose invalidation contract
// from the allocation-free DQN hot path (DESIGN.md §8): layers cache
// Wᵀ keyed to Param's version counter, so any code that mutates a
// parameter's weight storage — assigning through p.W.Data, copying
// into it, calling a mutating Tensor method on p.W, or passing p.W as
// the destination of an *Into op — must call MarkUpdated in the same
// function, or backprop silently uses a stale transpose. The bug is
// vicious precisely because nothing crashes: gradients just drift from
// the weights.
//
// The check is lexical and per-function: a function that performs a
// recognized weight write must also contain a MarkUpdated call.
// Functions on the nn allowlist — contract-maintaining internals that
// handle versioning through other means — are exempt.
var MarkUpdated = &Analyzer{
	Name: "markupdated",
	Doc:  "writes to Param weight storage must pair with MarkUpdated in the same function",
	Run:  runMarkUpdated,
}

// mutatingTensorMethods are the Tensor methods that overwrite
// elements in place.
var mutatingTensorMethods = map[string]bool{
	"Set": true, "Zero": true, "Fill": true, "Randn": true, "Scale": true,
}

// markUpdatedAllowlist exempts contract-maintaining functions,
// keyed "pkg-path.FuncName". Kept deliberately empty: every current
// weight-writer in the tree pairs with MarkUpdated, and new exemptions
// should be argued at the call site with //mlcr:allow markupdated.
var markUpdatedAllowlist = map[string]bool{}

const nnPkgPath = "mlcr/internal/nn"

func runMarkUpdated(p *Pass) {
	if !IsDeterministic(p.Path) {
		return
	}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if markUpdatedAllowlist[p.Path+"."+fn.Name.Name] {
				continue
			}
			writes := weightWrites(p, fn.Body)
			if len(writes) == 0 || callsMarkUpdated(fn.Body) {
				continue
			}
			for _, w := range writes {
				p.Reportf(w.Pos(),
					"%s writes Param weight storage but %s never calls MarkUpdated — backprop will use a stale cached transpose (DESIGN.md §8)",
					w.what, fn.Name.Name)
			}
		}
	}
}

// weightWrite is one recognized mutation of Param weight storage.
type weightWrite struct {
	node ast.Node
	what string
}

func (w weightWrite) Pos() token.Pos { return w.node.Pos() }

// weightWrites collects every recognized weight mutation in body.
func weightWrites(p *Pass, body *ast.BlockStmt) []weightWrite {
	var out []weightWrite
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				if touchesParamW(p.Info, lhs) {
					out = append(out, weightWrite{n, "assignment through .W"})
					break
				}
			}
		case *ast.IncDecStmt:
			if touchesParamW(p.Info, s.X) {
				out = append(out, weightWrite{n, "increment through .W"})
			}
		case *ast.CallExpr:
			if w := writeViaCall(p, s); w != "" {
				out = append(out, weightWrite{n, w})
			}
		}
		return true
	})
	return out
}

// writeViaCall classifies calls that mutate weight storage: the copy
// builtin with a .W destination, mutating Tensor methods on a .W
// receiver, and dst-first *Into helpers with a .W destination.
func writeViaCall(p *Pass, call *ast.CallExpr) string {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok &&
		mutatingTensorMethods[sel.Sel.Name] && touchesParamW(p.Info, sel.X) {
		return "Tensor." + sel.Sel.Name + " on .W"
	}
	obj := calleeObj(p.Info, call)
	if obj == nil || len(call.Args) == 0 {
		return ""
	}
	if b, ok := obj.(*types.Builtin); ok && b.Name() == "copy" {
		if touchesParamW(p.Info, call.Args[0]) {
			return "copy into .W storage"
		}
		return ""
	}
	if strings.HasSuffix(obj.Name(), "Into") && touchesParamW(p.Info, call.Args[0]) {
		return obj.Name() + " with .W destination"
	}
	return ""
}

// touchesParamW reports whether the expression contains a selection
// of field W on a value of type nn.Param (or *nn.Param) — the
// syntactic signature of weight-storage access.
func touchesParamW(info *types.Info, expr ast.Expr) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "W" || found {
			return !found
		}
		if isParamType(info.TypeOf(sel.X)) {
			found = true
			return false
		}
		return true
	})
	return found
}

// isParamType reports whether t is nn.Param or a pointer to it.
func isParamType(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Param" && obj.Pkg() != nil && obj.Pkg().Path() == nnPkgPath
}

// callsMarkUpdated reports whether the body lexically contains a
// MarkUpdated call (directly or inside a closure — either way the
// author demonstrably handled invalidation).
func callsMarkUpdated(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "MarkUpdated" {
				found = true
			}
		}
		return !found
	})
	return found
}
