"""Physical-unit abstract interpretation over the call graph.

The pipeline's values live in a handful of physical unit spaces — wafer
lengths in **nm**, raster positions in **px**, the conversion factor
``pixel`` (nm per px), timing in **ps**/**ns** — and the signal chain is
one long transport between them.  This module runs a small abstract
interpreter over that unit lattice::

    nm   um   px   nm_per_px   ps   ns   1 (dimensionless)   ?

seeded from three places (see :mod:`repro.units`):

* ``Annotated`` unit aliases on parameters, returns and dataclass fields
  (``x: Nanometers``, ``pixel: NmPerPixel``);
* naming conventions (``defocus_nm``, ``*_px``, ``period_ps``, the exact
  name ``pixel``);
* per-function *return-unit summaries*, solved over
  :class:`~repro.lintcheck.callgraph.Project` by the shared
  :func:`~repro.lintcheck.callgraph.solve`, so a helper that returns
  ``value_nm / pixel`` is known to yield px at every call site.  The
  unit transfer is not monotone (returns that disagree fall to
  unknown); the solver's evaluation budget bounds it.

The algebra is deliberately small: addition/subtraction/comparison
require matching units, multiplication and division transport across the
raster boundary (``nm / pixel -> px``, ``px * pixel -> nm``) and cancel
equal units to dimensionless; anything else is unknown (never reported).

Three rules consume the events:

* ``unit-mismatch`` — adding/subtracting/comparing two *different* known
  dimensional units anywhere (nm vs ps, px vs ns, ...).
* ``missing-grid-conversion`` — the nm/px flavour of the same event
  inside the raster-boundary modules (``repro/litho/``): crossing
  between wafer and sample space without a ``pixel`` multiply/divide.
* ``unit-unsafe-return`` — a public litho/metrology/timing API returns a
  bare ``float`` whose unit the interpreter cannot establish; annotate
  it with a :mod:`repro.units` alias (or fix the leak it exposes).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.lintcheck.callgraph import (
    BodyWalker,
    ClassInfo,
    FunctionInfo,
    ModuleInfo,
    Project,
    annotation_simple_name,
    call_simple_name,
    solve,
)
from repro.lintcheck.core import Finding, ProjectRule, register
from repro.units import ALIAS_UNITS, NAME_UNITS, SUFFIX_UNITS

#: lattice elements (``None`` is unknown/top — never reported)
NM = "nm"
UM = "um"
PX = "px"
NM_PER_PX = "nm_per_px"
PS = "ps"
NS = "ns"
DIMLESS = "1"

Unit = Optional[str]

#: units that carry a physical dimension (mismatches are only reported
#: between two of these; dimensionless and unknown combine silently) —
#: every vocabulary unit except the explicit "1"
_DIMENSIONAL = frozenset(ALIAS_UNITS.values()) - {DIMLESS}

#: human labels for messages
_LABELS = {
    NM: "nm (wafer length)",
    UM: "um (wafer length)",
    PX: "px (raster samples)",
    NM_PER_PX: "nm/px (raster pitch)",
    PS: "ps (timing)",
    NS: "ns (timing)",
    "fF": "fF (capacitance)",
    "kohm": "kohm (resistance)",
    "inv_nm": "1/nm (spatial frequency)",
    DIMLESS: "dimensionless",
}

#: the raster-boundary pair that ``missing-grid-conversion`` owns inside
#: the grid modules
_GRID_PAIR = frozenset({NM, PX})

#: modules where the nm<->px boundary is crossed by design
_GRID_PATH_FRAGMENT = "repro/litho/"

#: builtins/numpy calls that preserve the unit of their first argument
_UNIT_PRESERVING = frozenset({
    "int", "float", "abs", "round", "sorted", "list", "tuple",
    "floor", "ceil", "rint", "trunc", "absolute", "asarray", "array",
    "copy", "ravel", "flip", "sort", "squeeze", "atleast_1d",
})
#: calls whose result combines every argument's unit (all must agree)
_UNIT_COMBINING = frozenset({
    "min", "max", "sum", "minimum", "maximum", "hypot", "interp",
    "clip", "mean", "median", "std", "ptp", "diff", "concatenate",
})
#: calls that are dimensionless whatever their input
_UNIT_SCRUBBING = frozenset({"len", "sign", "isfinite", "isnan", "bool"})


def _name_unit(identifier: str) -> Unit:
    """Unit conveyed by an identifier's naming convention, if any."""
    if identifier in NAME_UNITS:
        return NAME_UNITS[identifier]
    for suffix, unit in SUFFIX_UNITS.items():
        if identifier.endswith(suffix) and len(identifier) > len(suffix):
            return unit
    return None


def _annotation_unit(node: Optional[ast.expr]) -> Unit:
    """Unit declared by an annotation using a :mod:`repro.units` alias."""
    simple = annotation_simple_name(node)
    if simple is None:
        return None
    return ALIAS_UNITS.get(simple)


def declared_param_unit(func: FunctionInfo, param: str) -> Unit:
    """Annotation unit first, then the parameter's naming convention."""
    args = func.node.args
    for arg in args.posonlyargs + args.args + args.kwonlyargs:
        if arg.arg == param:
            unit = _annotation_unit(arg.annotation)
            if unit is not None:
                return unit
    return _name_unit(param)


def combine_add(a: Unit, b: Unit) -> Tuple[Unit, bool]:
    """Unit of ``a + b`` (or ``-``/comparison) and whether it mismatches.

    Unknown and dimensionless sides are permissive — a bare numeric
    constant may legitimately carry any unit — so only two *different*
    dimensional units report.
    """
    if a in _DIMENSIONAL and b in _DIMENSIONAL and a != b:
        return None, True
    if a in _DIMENSIONAL:
        return a, False
    if b in _DIMENSIONAL:
        return b, False
    if a == DIMLESS and b == DIMLESS:
        return DIMLESS, False
    return None, False


def combine_mul(a: Unit, b: Unit) -> Unit:
    """Unit of ``a * b`` — the raster transport plus scaling identities."""
    pair = {a, b}
    if pair == {PX, NM_PER_PX}:
        return NM
    if a == DIMLESS:
        return b
    if b == DIMLESS:
        return a
    return None


def combine_div(a: Unit, b: Unit) -> Unit:
    """Unit of ``a / b`` — cancellation and the raster transport."""
    if a is not None and a == b:
        return DIMLESS
    if a == NM and b == NM_PER_PX:
        return PX
    if a == NM and b == PX:
        return NM_PER_PX
    if b == DIMLESS:
        return a
    return None


@dataclass(frozen=True, order=True)
class UnitEvent:
    """One observed unit mismatch at a source location."""

    path: str
    line: int
    col: int
    left: str
    right: str
    context: str  # "addition" | "subtraction" | "comparison"

    @property
    def pair(self) -> frozenset:
        return frozenset({self.left, self.right})

    def describe(self) -> str:
        return (
            f"{self.context} of {_LABELS.get(self.left, self.left)} and "
            f"{_LABELS.get(self.right, self.right)}"
        )


class _UnitEvaluator(BodyWalker[Unit]):
    """Single forward pass over one function body, tracking var units.

    ``read`` looks up a callee's return-unit summary."""

    def __init__(
        self,
        project: Project,
        module: ModuleInfo,
        func: Optional[FunctionInfo],
        read: Callable[[str], Unit],
        attr_units: Dict[str, Dict[str, Unit]],
        events: Optional[List[UnitEvent]] = None,
    ) -> None:
        self.project = project
        self.module = module
        self.func = func
        self.read = read
        self.attr_units = attr_units
        self.events = events
        self.env: Dict[str, Unit] = {}
        self.local_classes: Dict[str, str] = {}
        self.return_unit: Unit = None
        self._return_seen = False

    # -- statement hooks ----------------------------------------------------

    def _ann_assign(self, stmt: ast.AnnAssign) -> None:
        unit = self.eval(stmt.value) if stmt.value is not None else None
        declared = _annotation_unit(stmt.annotation)
        self._bind(stmt.target, declared if declared is not None else unit,
                   stmt.value)

    def _aug_assign(self, stmt: ast.AugAssign) -> None:
        value_unit = self.eval(stmt.value)
        if not isinstance(stmt.target, ast.Name):
            return
        current = self.env.get(stmt.target.id)
        unit: Unit = None
        if isinstance(stmt.op, (ast.Add, ast.Sub)):
            unit, mismatch = combine_add(current, value_unit)
            if mismatch:
                self._record(stmt, current, value_unit,
                             "addition" if isinstance(stmt.op, ast.Add)
                             else "subtraction")
        elif isinstance(stmt.op, ast.Mult):
            unit = combine_mul(current, value_unit)
        elif isinstance(stmt.op, ast.Div):
            unit = combine_div(current, value_unit)
        self.env[stmt.target.id] = unit

    def _return(self, value: Unit) -> None:
        if not self._return_seen:
            self.return_unit = value
            self._return_seen = True
        elif value != self.return_unit:
            self.return_unit = None

    def _bind(self, target: ast.expr, unit: Unit,
              source: Optional[ast.expr]) -> None:
        if isinstance(target, ast.Name):
            # a naming convention on the target pins the unit when the
            # value's unit is unknown (`width_px = compute()`), and a
            # known value unit wins otherwise
            declared = _name_unit(target.id)
            self.env[target.id] = unit if unit is not None else declared
            if isinstance(source, ast.Call):
                cls_name = self._constructed_class(source)
                if cls_name is not None:
                    self.local_classes[target.id] = cls_name
                else:
                    self.local_classes.pop(target.id, None)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind(element, None, None)
        elif isinstance(target, ast.Starred):
            self._bind(target.value, unit, None)

    def _constructed_class(self, call: ast.Call) -> Optional[str]:
        name = call_simple_name(call)
        if name is None:
            return None
        prefer = self.func.module if self.func is not None else self.module.name
        if self.project.resolve_class(name, prefer_module=prefer) is not None:
            return name
        return None

    # -- expressions --------------------------------------------------------

    def eval(self, expr: ast.expr) -> Unit:
        if isinstance(expr, ast.Constant):
            # Numeric literals are dimensionless scalars: `width_nm / 2`
            # stays in nm.  Everything else (strings, None) is unknown.
            if not isinstance(expr.value, bool) and isinstance(expr.value, (int, float)):
                return DIMLESS
            return None
        if isinstance(expr, ast.Name):
            unit = self.env.get(expr.id)
            if unit is not None:
                return unit
            if expr.id in self.env:
                return None
            return _name_unit(expr.id)
        if isinstance(expr, ast.Attribute):
            return self._eval_attribute(expr)
        if isinstance(expr, ast.Call):
            return self._eval_call(expr)
        if isinstance(expr, ast.BinOp):
            return self._eval_binop(expr)
        if isinstance(expr, ast.UnaryOp):
            return self.eval(expr.operand)
        if isinstance(expr, ast.Compare):
            self._eval_compare(expr)
            return None
        if isinstance(expr, ast.BoolOp):
            for value in expr.values:
                self.eval(value)
            return None
        if isinstance(expr, ast.IfExp):
            self.eval(expr.test)
            left = self.eval(expr.body)
            right = self.eval(expr.orelse)
            return left if left == right else None
        if isinstance(expr, ast.Subscript):
            # an element of a sequence of X is an X
            unit = self.eval(expr.value)
            self.eval(expr.slice)
            return unit
        if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
            units = {self.eval(element) for element in expr.elts}
            return units.pop() if len(units) == 1 else None
        if isinstance(expr, ast.Dict):
            for key in expr.keys:
                if key is not None:
                    self.eval(key)
            for value in expr.values:
                self.eval(value)
            return None
        if isinstance(expr, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            return self._eval_comprehension(expr.generators, expr.elt)
        if isinstance(expr, ast.DictComp):
            self._eval_comprehension(expr.generators, expr.value)
            return None
        if isinstance(expr, ast.NamedExpr):
            unit = self.eval(expr.value)
            self._bind(expr.target, unit, expr.value)
            return unit
        if isinstance(expr, (ast.Await, ast.YieldFrom)):
            return self.eval(expr.value)
        if isinstance(expr, ast.Yield):
            return self.eval(expr.value) if expr.value is not None else None
        if isinstance(expr, ast.Starred):
            return self.eval(expr.value)
        if isinstance(expr, (ast.JoinedStr, ast.FormattedValue, ast.Lambda)):
            return None
        return None

    def _eval_comprehension(
        self, generators: Sequence[ast.comprehension], elt: ast.expr
    ) -> Unit:
        self._enter_generators(generators)
        return self.eval(elt)

    def _eval_attribute(self, expr: ast.Attribute) -> Unit:
        self.eval(expr.value)
        named = _name_unit(expr.attr)
        if named is not None:
            return named
        cls = self._receiver_class_info(expr.value)
        if cls is not None:
            table = self.attr_units.get(cls.qualname)
            if table and expr.attr in table:
                return table[expr.attr]
            getter = self.project.resolve_method(cls, expr.attr)
            if getter is not None and getter.is_property:
                return self.read(getter.qualname)
        return None

    def _receiver_class_info(self, receiver: ast.expr) -> Optional[ClassInfo]:
        if not isinstance(receiver, ast.Name) or self.func is None:
            return None
        return self.project._receiver_class(
            self.func, receiver.id, self.local_classes
        )

    def _eval_binop(self, expr: ast.BinOp) -> Unit:
        left = self.eval(expr.left)
        right = self.eval(expr.right)
        if isinstance(expr.op, (ast.Add, ast.Sub)):
            unit, mismatch = combine_add(left, right)
            if mismatch:
                context = "addition" if isinstance(expr.op, ast.Add) else "subtraction"
                self._record(expr, left, right, context)
            return unit
        if isinstance(expr.op, ast.Mult):
            return combine_mul(left, right)
        if isinstance(expr.op, (ast.Div, ast.FloorDiv)):
            return combine_div(left, right)
        if isinstance(expr.op, ast.Mod):
            return left
        return None

    def _eval_compare(self, expr: ast.Compare) -> None:
        units = [self.eval(expr.left)]
        units.extend(self.eval(comparator) for comparator in expr.comparators)
        # membership/identity chains with one dimensional side are fine
        for index in range(len(units) - 1):
            a, b = units[index], units[index + 1]
            if a in _DIMENSIONAL and b in _DIMENSIONAL and a != b:
                self._record(expr, a, b, "comparison")

    def _eval_call(self, call: ast.Call) -> Unit:
        arg_units = [self.eval(arg) for arg in call.args]
        for keyword in call.keywords:
            self.eval(keyword.value)

        name = call_simple_name(call)
        if name in _UNIT_SCRUBBING:
            return DIMLESS
        if name in _UNIT_PRESERVING:
            return arg_units[0] if arg_units else None
        if name in _UNIT_COMBINING:
            known = {u for u in arg_units if u is not None and u != DIMLESS}
            if len(known) == 1:
                return known.pop()
            return None

        callee = None
        if self.func is not None:
            callee = self.project.resolve_call(
                self.func, call.func, self.local_classes
            )
        if callee is not None:
            # the summary already holds a declared return unit
            unit = self.read(callee.qualname)
            return unit if unit is not None else _name_unit(callee.name)
        if name is not None:
            return _name_unit(name)
        return None

    def _record(self, node: ast.AST, left: Unit, right: Unit,
                context: str) -> None:
        if self.events is None or left is None or right is None:
            return
        self.events.append(UnitEvent(
            path=self.module.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            left=left,
            right=right,
            context=context,
        ))


# ---------------------------------------------------------------------------
# Project-level analysis (shared by the three rules)
# ---------------------------------------------------------------------------


def class_attr_units(project: Project) -> Dict[str, Dict[str, Unit]]:
    """Per-class field units from annotated class bodies + conventions."""
    cached = project.analysis_cache.get("unit-attr-units")
    if isinstance(cached, dict):
        return cached
    tables: Dict[str, Dict[str, Unit]] = {}
    for qualname in sorted(project.classes):
        cls = project.classes[qualname]
        table: Dict[str, Unit] = {}
        for item in cls.node.body:
            if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                unit = _annotation_unit(item.annotation)
                if unit is None:
                    unit = _name_unit(item.target.id)
                if unit is not None:
                    table[item.target.id] = unit
        if table:
            tables[qualname] = table
    project.analysis_cache["unit-attr-units"] = tables
    return tables


def _run_evaluator(
    project: Project,
    func: FunctionInfo,
    read: Callable[[str], Unit],
    events: Optional[List[UnitEvent]] = None,
) -> _UnitEvaluator:
    """Evaluate one function body with its parameters' declared units."""
    evaluator = _UnitEvaluator(project, project.modules[func.module], func,
                               read, class_attr_units(project), events)
    for param in func.params:
        evaluator.env[param] = declared_param_unit(func, param)
    evaluator.exec_block(func.node.body)
    return evaluator


def compute_unit_summaries(project: Project) -> Dict[str, Unit]:
    """Return-unit summary per function qualname, solved to a fixpoint.

    A return annotation is authoritative; every other function's summary
    is the unit its returns agree on (else its name's convention).
    """
    cached = project.analysis_cache.get("unit-summaries")
    if isinstance(cached, dict):
        return cached
    declared: Dict[str, Unit] = {
        qualname: _annotation_unit(func.node.returns)
        for qualname, func in project.functions.items()
    }

    def transfer(qualname: str, read: Callable[[str], Unit]) -> Unit:
        func = project.functions[qualname]
        inferred = _run_evaluator(project, func, read).return_unit
        return inferred if inferred is not None else _name_unit(func.name)

    summaries = solve(
        [qualname for qualname, unit in declared.items() if unit is None],
        declared, transfer,
    )
    project.analysis_cache["unit-summaries"] = summaries
    return summaries


def unit_events(project: Project) -> List[UnitEvent]:
    """Every unit-mismatch event in the selected modules (cached)."""
    cached = project.analysis_cache.get("unit-events")
    if isinstance(cached, list):
        return cached
    summaries = compute_unit_summaries(project)
    events: List[UnitEvent] = []
    for _, func in project.iter_selected_functions():
        _run_evaluator(project, func, summaries.get, events)
    deduped: Dict[Tuple[str, int, int, frozenset, str], UnitEvent] = {}
    for event in events:
        key = (event.path, event.line, event.col, event.pair, event.context)
        deduped.setdefault(key, event)
    out = sorted(deduped.values())
    project.analysis_cache["unit-events"] = out
    return out


def _is_grid_event(event: UnitEvent) -> bool:
    return (
        event.pair == _GRID_PAIR
        and _GRID_PATH_FRAGMENT in event.path.replace("\\", "/")
    )


@register
class UnitMismatchRule(ProjectRule):
    """Two different physical units may not be added or compared.

    nm + px, ps < ns, um - nm: each is a silent scale error the type
    checker cannot see (every one of these is ``float``).  The nm/px
    flavour inside the raster modules is reported separately as
    ``missing-grid-conversion``.
    """

    id = "unit-mismatch"
    title = "no addition/comparison across physical units"

    def check_project(self, project: Project) -> Iterator[Finding]:
        for event in unit_events(project):
            if _is_grid_event(event):
                continue
            yield Finding(
                event.path, event.line, event.col, self.id,
                f"{event.describe()} — same-unit operands required; convert "
                "explicitly (see repro.units) or annotate the intended unit",
            )


@register
class MissingGridConversionRule(ProjectRule):
    """Crossing the raster boundary requires a ``pixel`` multiply/divide.

    Inside ``repro/litho/`` the nm<->px transition is routine — and every
    crossing must go through the grid pitch (``x_px = x_nm / pixel``,
    ``x_nm = x_px * pixel``).  An nm value meeting a px value in a sum or
    comparison skipped that conversion.
    """

    id = "missing-grid-conversion"
    title = "nm<->px crossing without a pixel multiply/divide"

    def applies_to(self, path: str) -> bool:
        return _GRID_PATH_FRAGMENT in path

    def check_project(self, project: Project) -> Iterator[Finding]:
        for event in unit_events(project):
            if not _is_grid_event(event):
                continue
            yield Finding(
                event.path, event.line, event.col, self.id,
                f"{event.describe()} crosses the raster boundary without a "
                "grid conversion; multiply/divide by the pixel pitch "
                "(nm/px) on one side first",
            )


#: path fragments whose public float-returning APIs must carry a unit
_RETURN_SCOPES = ("repro/litho/", "repro/metrology/", "repro/timing/")


@register
class UnitUnsafeReturnRule(ProjectRule):
    """Public physics APIs must say what unit their floats are in.

    A bare ``-> float`` from a litho/metrology/timing API is how nm
    quietly becomes px three calls later.  The rule fires when the
    interpreter cannot establish the unit either (no alias annotation,
    no naming convention, no inferable flow); annotate the return with a
    :mod:`repro.units` alias — ``Dimensionless`` is an explicit answer
    too.
    """

    id = "unit-unsafe-return"
    title = "public litho/metrology/timing API returns unit-less float"

    def applies_to(self, path: str) -> bool:
        return any(fragment in path for fragment in _RETURN_SCOPES)

    def check_project(self, project: Project) -> Iterator[Finding]:
        summaries = compute_unit_summaries(project)
        for module, func in project.iter_selected_functions():
            norm = module.path.replace("\\", "/")
            if not any(fragment in norm for fragment in _RETURN_SCOPES):
                continue
            if func.name.startswith("_"):
                continue
            returns = func.node.returns
            if annotation_simple_name(returns) != "float":
                continue  # only bare floats are unit-unsafe
            if _annotation_unit(returns) is not None:
                continue
            if summaries.get(func.qualname) is not None:
                continue
            if _name_unit(func.name) is not None:
                continue
            yield Finding(
                func.path, func.node.lineno, func.node.col_offset,
                self.id,
                f"public API {func.display!r} returns a bare float with "
                "no establishable unit; annotate the return with a "
                "repro.units alias (Nanometers, Picoseconds, "
                "Dimensionless, ...)",
            )
