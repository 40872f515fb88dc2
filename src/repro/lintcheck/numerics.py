"""Array-numerics checks over numpy call sites.

Three per-module rules that watch how ndarrays are created and combined:

* ``dtype-drift`` — float32 and float64 values meeting in one
  expression (silent promotion, or silent precision loss on store), and
  complex values leaking somewhere order matters (a comparison or
  ``min``/``max``/``sort``) without an ``abs``/``.real`` first.  The SOCS
  kernels are complex by design; *intensities* must not be.
* ``silent-broadcast`` — elementwise arithmetic between two 1-D arrays
  built with *different* symbolic lengths (``fftfreq(nx)`` vs
  ``fftfreq(ny)``).  numpy either raises at runtime or — worse, when the
  sizes happen to match — quietly pairs unrelated axes; the fix is an
  explicit ``meshgrid``/``outer``/``reshape``.
* ``python-loop-over-ndarray`` — a python-level ``for`` over an ndarray
  (directly, via ``range(len(arr))``, or via ``zip``) in the modules
  where per-gate scaling matters (``timing/mc.py``, ``metrology/``,
  ``variation/``).  Interpreter dispatch per element is what ROADMAP
  item 4 (vectorized MC) exists to remove; new code should not add more.

The dtype lattice is tiny: ``f32``, ``f64``, ``c`` (complex), unknown.
Unknown never reports — only a positively-known f32 meeting a
positively-known f64 (or complex hitting an ordering) fires, so plain
untyped python floats stay silent.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set

from repro.lintcheck.callgraph import call_simple_name
from repro.lintcheck.core import Finding, LintRule, ModuleSource, register

F32 = "f32"
F64 = "f64"
CPLX = "c"

Dtype = Optional[str]

#: numpy constructors that default to float64 when no dtype= is given
_F64_DEFAULT_CTORS = frozenset({
    "zeros", "ones", "empty", "full", "linspace", "arange", "zeros_like",
    "ones_like", "full_like", "empty_like", "fftfreq", "rfftfreq",
})
#: numpy transforms that return complex whatever the input
_COMPLEX_CALLS = frozenset({"fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
                            "rfft", "rfft2", "conj", "conjugate"})
#: calls that strip complex back to real magnitude/parts
_REALIZING_CALLS = frozenset({"abs", "absolute", "real", "imag", "angle",
                              "hypot"})
#: dtype-preserving elementwise/structural calls (first argument rules)
_PRESERVING_CALLS = frozenset({
    "exp", "sqrt", "sin", "cos", "log", "copy", "asarray", "array",
    "ravel", "reshape", "transpose", "flip", "roll", "where", "clip",
    "minimum", "maximum", "sum", "mean", "fftshift", "ifftshift", "outer",
})
#: ordering operations that are undefined/ill-defined on complex values
_ORDERING_CALLS = frozenset({"min", "max", "sorted", "sort", "argmin",
                             "argmax", "median", "percentile", "clip"})

_DTYPE_NAMES: Dict[str, str] = {
    "float32": F32,
    "single": F32,
    "float64": F64,
    "double": F64,
    "float": F64,
    "complex": CPLX,
    "complex64": CPLX,
    "complex128": CPLX,
    "cfloat": CPLX,
}

_LABELS = {F32: "float32", F64: "float64", CPLX: "complex"}


def _dtype_from_expr(node: ast.expr) -> Dtype:
    """The dtype named by a ``dtype=`` argument expression."""
    if isinstance(node, ast.Name):
        return _DTYPE_NAMES.get(node.id)
    if isinstance(node, ast.Attribute):
        return _DTYPE_NAMES.get(node.attr)
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return _DTYPE_NAMES.get(node.value)
    return None


def _functions(tree: ast.Module) -> Iterator[ast.AST]:
    """Every function body plus the module top level, innermost-last."""
    yield tree
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


class _DtypeTracker:
    """One forward pass over a function body, tracking ndarray dtypes."""

    def __init__(self, rule: LintRule, module: ModuleSource) -> None:
        self.rule = rule
        self.module = module
        self.env: Dict[str, Dtype] = {}
        self.findings: List[Finding] = []

    def run(self, scope: ast.AST) -> List[Finding]:
        body = scope.body if hasattr(scope, "body") else []
        for stmt in body:
            self._stmt(stmt)
        return self.findings

    # -- statements ---------------------------------------------------------

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # nested scopes are visited separately
        if isinstance(stmt, ast.Assign):
            dtype = self._eval(stmt.value)
            for target in stmt.targets:
                self._bind(target, dtype)
        elif isinstance(stmt, ast.AnnAssign):
            dtype = self._eval(stmt.value) if stmt.value is not None else None
            self._bind(stmt.target, dtype)
        elif isinstance(stmt, ast.AugAssign):
            value = self._eval(stmt.value)
            if isinstance(stmt.target, ast.Name):
                current = self.env.get(stmt.target.id)
                self.env[stmt.target.id] = self._combine(stmt, current, value)
        elif isinstance(stmt, ast.Return) and stmt.value is not None:
            self._eval(stmt.value)
        elif isinstance(stmt, ast.Expr):
            self._eval(stmt.value)
        else:
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._eval(child)
                elif isinstance(child, ast.stmt):
                    self._stmt(child)
                elif isinstance(child, (ast.excepthandler, ast.withitem)):
                    for sub in ast.iter_child_nodes(child):
                        if isinstance(sub, ast.stmt):
                            self._stmt(sub)
                        elif isinstance(sub, ast.expr):
                            self._eval(sub)

    def _bind(self, target: ast.expr, dtype: Dtype) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = dtype
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind(element, dtype)

    # -- expressions --------------------------------------------------------

    def _eval(self, expr: ast.expr) -> Dtype:
        if isinstance(expr, ast.Constant):
            if isinstance(expr.value, complex):
                return CPLX
            return None  # python floats adapt to either precision
        if isinstance(expr, ast.Name):
            return self.env.get(expr.id)
        if isinstance(expr, ast.Attribute):
            base = self._eval(expr.value)
            if expr.attr in ("real", "imag"):
                return F64 if base == CPLX else base
            if expr.attr == "T":
                return base
            return None
        if isinstance(expr, ast.Call):
            return self._eval_call(expr)
        if isinstance(expr, ast.BinOp):
            left = self._eval(expr.left)
            right = self._eval(expr.right)
            if isinstance(expr.op, ast.Pow) and right is None:
                return left  # x ** 2 keeps x's dtype
            return self._combine(expr, left, right)
        if isinstance(expr, ast.UnaryOp):
            return self._eval(expr.operand)
        if isinstance(expr, ast.Compare):
            dtypes = [self._eval(expr.left)]
            dtypes.extend(self._eval(cmp) for cmp in expr.comparators)
            simple_ops = (ast.Is, ast.IsNot, ast.In, ast.NotIn, ast.Eq, ast.NotEq)
            ordered = any(not isinstance(op, simple_ops) for op in expr.ops)
            if ordered and CPLX in dtypes:
                self._report(expr, "ordering comparison on a complex value; "
                             "take np.abs()/.real first — complex has no "
                             "order and the magnitude is almost always what "
                             "is meant")
            return None
        if isinstance(expr, ast.Subscript):
            self._eval(expr.slice)
            return self._eval(expr.value)
        if isinstance(expr, ast.IfExp):
            self._eval(expr.test)
            left = self._eval(expr.body)
            right = self._eval(expr.orelse)
            return left if left == right else None
        if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
            dtypes = {self._eval(element) for element in expr.elts}
            return dtypes.pop() if len(dtypes) == 1 else None
        if isinstance(expr, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            for gen in expr.generators:
                self._eval(gen.iter)
            return None
        if isinstance(expr, ast.NamedExpr):
            dtype = self._eval(expr.value)
            self._bind(expr.target, dtype)
            return dtype
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                self._eval(child)
        return None

    def _eval_call(self, call: ast.Call) -> Dtype:
        arg_dtypes = [self._eval(arg) for arg in call.args]
        explicit: Dtype = None
        for keyword in call.keywords:
            value_dtype = self._eval(keyword.value)
            if keyword.arg == "dtype":
                explicit = _dtype_from_expr(keyword.value)
            elif keyword.arg is None and value_dtype is not None:
                arg_dtypes.append(value_dtype)
        name = call_simple_name(call)
        if name == "astype" or name == "view":
            target = None
            if call.args:
                target = _dtype_from_expr(call.args[0])
            return target if target is not None else explicit
        if explicit is not None and name in _F64_DEFAULT_CTORS | {"asarray", "array"}:
            return explicit
        if name in _COMPLEX_CALLS:
            return CPLX
        if name in _REALIZING_CALLS:
            first = arg_dtypes[0] if arg_dtypes else None
            return F64 if first in (CPLX, F64, None) else first
        if name in _ORDERING_CALLS and CPLX in arg_dtypes:
            self._report(call, f"{name}() applied to a complex value; "
                         "reduce with np.abs()/.real first — ordering is "
                         "undefined for complex dtypes")
            return None
        if name in _F64_DEFAULT_CTORS:
            return F64
        if name in _PRESERVING_CALLS:
            first = arg_dtypes[0] if arg_dtypes else None
            if name == "exp" and first == CPLX:
                return CPLX
            known = [d for d in arg_dtypes if d is not None]
            if len(set(known)) == 1:
                return known[0]
            if len(set(known)) > 1:
                return self._combine(call, known[0], known[1])
            return first
        return None

    def _combine(self, node: ast.AST, left: Dtype, right: Dtype) -> Dtype:
        if left is None:
            return right
        if right is None:
            return left
        if left == right:
            return left
        if CPLX in (left, right):
            return CPLX
        # the only remaining mix is f32 with f64 — the drift we hunt
        self._report(node, f"{_LABELS[left]} meets {_LABELS[right]} in one "
                     "expression; numpy promotes silently and the float32 "
                     "side loses its meaning — pick one dtype (astype) at "
                     "the boundary")
        return F64

    def _report(self, node: ast.AST, message: str) -> None:
        self.findings.append(self.rule.finding(self.module, node, message))


@register
class DtypeDriftRule(LintRule):
    """float32/float64 mixing and complex leaking past ``abs``."""

    id = "dtype-drift"
    title = "no silent float32/float64 mixing or ordered complex values"

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for scope in _functions(module.tree):
            tracker = _DtypeTracker(self, module)
            yield from tracker.run(scope)


# ---------------------------------------------------------------------------
# silent-broadcast
# ---------------------------------------------------------------------------

#: constructors whose scalar size argument names the 1-D axis length
_AXIS_CTORS = frozenset({"fftfreq", "rfftfreq", "arange", "zeros", "ones",
                         "empty"})


def _axis_token(call: ast.Call) -> Optional[str]:
    """Symbolic length of a 1-D constructor call (``fftfreq(nx)`` → nx)."""
    name = call_simple_name(call)
    if name in _AXIS_CTORS and call.args:
        size = call.args[0]
    elif name == "linspace" and len(call.args) >= 3:
        size = call.args[2]
    else:
        return None
    if isinstance(size, ast.Name):
        return size.id
    if isinstance(size, ast.Attribute):
        return ast.unparse(size)
    return None


class _AxisTracker:
    """Track 1-D arrays with a known symbolic length inside one scope."""

    def __init__(self, rule: LintRule, module: ModuleSource) -> None:
        self.rule = rule
        self.module = module
        self.env: Dict[str, str] = {}
        self.findings: List[Finding] = []

    def run(self, scope: ast.AST) -> List[Finding]:
        for stmt in getattr(scope, "body", []):
            self._stmt(stmt)
        return self.findings

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return
        if isinstance(stmt, ast.Assign):
            token = self._eval(stmt.value)
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    if token is not None:
                        self.env[target.id] = token
                    else:
                        self.env.pop(target.id, None)
                elif isinstance(target, (ast.Tuple, ast.List)):
                    # meshgrid unpacking (2-D results) clears the axis tags
                    for element in target.elts:
                        if isinstance(element, ast.Name):
                            self.env.pop(element.id, None)
        else:
            for child in ast.walk(stmt):
                if isinstance(child, ast.expr):
                    self._eval(child)
                    break  # _eval walks its own subtree via BinOp recursion
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.stmt):
                    self._stmt(child)

    def _eval(self, expr: ast.expr) -> Optional[str]:
        if isinstance(expr, ast.Call):
            for arg in expr.args:
                self._eval(arg)
            for keyword in expr.keywords:
                self._eval(keyword.value)
            return _axis_token(expr)
        if isinstance(expr, ast.Name):
            return self.env.get(expr.id)
        if isinstance(expr, ast.BinOp) and isinstance(
            expr.op, (ast.Add, ast.Sub, ast.Mult, ast.Div)
        ):
            left = self._eval(expr.left)
            right = self._eval(expr.right)
            if left is not None and right is not None and left != right:
                self.findings.append(self.rule.finding(
                    self.module, expr,
                    f"elementwise op between 1-D arrays of independent "
                    f"lengths ({left} vs {right}); this broadcasts or "
                    "errors silently — build the 2-D grid explicitly "
                    "(np.meshgrid / np.outer / reshape)",
                ))
                return None
            return left if left == right else None
        if isinstance(expr, ast.UnaryOp):
            return self._eval(expr.operand)
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                self._eval(child)
        return None


@register
class SilentBroadcastRule(LintRule):
    """Mismatched 1-D FFT/meshgrid axes combined elementwise."""

    id = "silent-broadcast"
    title = "no elementwise ops across independent 1-D axis lengths"

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for scope in _functions(module.tree):
            tracker = _AxisTracker(self, module)
            yield from tracker.run(scope)


# ---------------------------------------------------------------------------
# python-loop-over-ndarray
# ---------------------------------------------------------------------------

#: numpy calls that produce an ndarray worth vectorizing over
_ARRAY_CTORS = frozenset({
    "zeros", "ones", "empty", "full", "linspace", "arange", "asarray",
    "array", "fftfreq", "rfftfreq", "meshgrid", "concatenate", "stack",
})

_NDARRAY_ANNOTATIONS = frozenset({"ndarray", "np.ndarray", "numpy.ndarray"})


def _annotation_is_ndarray(node: Optional[ast.expr]) -> bool:
    if node is None:
        return False
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value in _NDARRAY_ANNOTATIONS
    try:
        return ast.unparse(node) in _NDARRAY_ANNOTATIONS
    except Exception:  # pragma: no cover - unparse is total on valid ASTs
        return False


class _NdarrayNames(ast.NodeVisitor):
    """Names bound to ndarrays inside one function (params + np.* calls)."""

    def __init__(self, func: ast.AST) -> None:
        self.names: Set[str] = set()
        args = getattr(func, "args", None)
        if args is not None:
            for arg in args.posonlyargs + args.args + args.kwonlyargs:
                if _annotation_is_ndarray(arg.annotation):
                    self.names.add(arg.arg)
        for stmt in getattr(func, "body", []):
            self._scan(stmt)

    def _scan(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return
        if isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Call):
            if call_simple_name(stmt.value) in _ARRAY_CTORS:
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        self.names.add(target.id)
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.stmt):
                self._scan(child)


def _loop_over_ndarray(iter_expr: ast.expr, names: Set[str]) -> Optional[str]:
    """Which ndarray (if any) a ``for``'s iterable walks element-wise."""
    if isinstance(iter_expr, ast.Name) and iter_expr.id in names:
        return iter_expr.id
    if isinstance(iter_expr, ast.Call):
        name = call_simple_name(iter_expr)
        if name in ("range", "enumerate", "zip", "reversed", "map"):
            for node in ast.walk(iter_expr):
                if isinstance(node, ast.Name) and node.id in names:
                    # range(len(arr)), zip(a, b), enumerate(arr), ...
                    return node.id
        if name in _ARRAY_CTORS:
            return name + "(...)"
    return None


@register
class PythonLoopOverNdarrayRule(LintRule):
    """Per-element python loops where the per-gate scale lives."""

    id = "python-loop-over-ndarray"
    title = "vectorize python-level loops over ndarrays"

    _SCOPES = ("repro/timing/mc.py", "repro/metrology/", "repro/variation/")

    def applies_to(self, path: str) -> bool:
        return any(fragment in path for fragment in self._SCOPES)

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for scope in _functions(module.tree):
            names = _NdarrayNames(scope).names
            if not names:
                continue
            for stmt in ast.walk(scope):
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if stmt is not scope:
                        continue
                if isinstance(stmt, (ast.For, ast.AsyncFor)):
                    hit = _loop_over_ndarray(stmt.iter, names)
                    if hit is not None:
                        yield self.finding(
                            module, stmt,
                            f"python-level loop over ndarray {hit!r}; "
                            "per-element interpreter dispatch dominates at "
                            "per-gate scale — replace with vectorized numpy "
                            "ops (see ROADMAP item 4)",
                        )
                elif isinstance(stmt, (ast.ListComp, ast.SetComp,
                                       ast.GeneratorExp, ast.DictComp)):
                    for gen in stmt.generators:
                        hit = _loop_over_ndarray(gen.iter, names)
                        if hit is not None:
                            yield self.finding(
                                module, stmt,
                                f"comprehension over ndarray {hit!r}; "
                                "replace with vectorized numpy ops (see "
                                "ROADMAP item 4)",
                            )
