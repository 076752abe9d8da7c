"""Symbolic bound expressions: the assertion language of the logic.

A bound expression denotes a function ``(metric, params) -> N ∪ {∞}``::

    B ::= c | M(f) | B + B | max(B, B) | B - B (guarded) | k * B
        | p | log2(B) | B^2 ...

where ``M(f)`` is the stack cost the compiler will later assign to
function ``f`` and ``p`` ranges over integer parameters (function
arguments) used by parametric specs.

Two fragments matter:

* the **ground max-plus fragment** (constants, metric atoms, ``+``,
  ``max``, scaling by constants, and the ``frame-diff`` shape
  ``max(..) - B`` emitted by Q:FRAME) — this is what the automatic
  analyzer produces, and the order ``B1 <= B2`` is *decided exactly* by
  normalizing both sides to max-plus normal form;
* the **parametric fragment** (adds parameters, ``log2``, products) used
  by manual specs for recursive functions — the order is checked by
  exhaustive evaluation over a declared verification domain, which is the
  executable surrogate for the paper's Coq side-condition proofs.

``log2`` follows the paper's convention: ``log2(x) = ∞`` for ``x < 0`` and
``log2(0) = 0``; we additionally round up (``ceil``) so that integer
recursion depths are bounded soundly.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import Iterable, Mapping, Optional, Union

Number = Union[int, float]  # float only for math.inf
INFINITY: float = math.inf


class BExpr:
    """Abstract bound expression; immutable and hash-consed.

    Every constructor interns through a per-class pool, so structurally
    equal expressions are the *same object*.  That makes child tuples
    usable as pool keys (identity hashing is structural hashing), lets
    :func:`_syntactically_equal` short-circuit on ``is``, and gives each
    node a place to cache its max-plus normal form: the analyzer and the
    derivation re-check ask :func:`bound_le` about the same subtrees over
    and over, and the normal form of a shared node is computed once.
    """

    # Memo slots start unset (plain __slots__ attribute semantics); the
    # memoized entry points fill them lazily.
    __slots__ = ("_memo_mpnf", "_memo_frames")

    def __reduce__(self):
        # Re-enter the interning constructor on unpickle/copy: every
        # concrete class's __new__ takes its own __slots__ in order.
        cls = type(self)
        return cls, tuple(getattr(self, name) for name in cls.__slots__)

    # Convenience operators for building bounds in specs and tests.
    def __add__(self, other: "BExpr | int") -> "BExpr":
        return badd(self, _coerce(other))

    def __radd__(self, other: "BExpr | int") -> "BExpr":
        return badd(_coerce(other), self)

    def __mul__(self, other: int) -> "BExpr":
        return BScale(other, self)

    def __rmul__(self, other: int) -> "BExpr":
        return BScale(other, self)


class BConst(BExpr):
    __slots__ = ("value",)
    _pool: dict = {}

    def __new__(cls, value: Number) -> "BConst":
        if value != INFINITY and (not isinstance(value, int) or value < 0):
            raise ValueError(f"bound constants must be naturals or ∞: {value!r}")
        self = cls._pool.get(value)
        if self is None:
            self = object.__new__(cls)
            self.value = value
            cls._pool[value] = self
        return self

    def __repr__(self) -> str:
        return "∞" if self.value == INFINITY else str(self.value)


class BMetric(BExpr):
    """``M(f)``: the (unknown until compilation) stack cost of ``f``."""

    __slots__ = ("function",)
    _pool: dict = {}

    def __new__(cls, function: str) -> "BMetric":
        self = cls._pool.get(function)
        if self is None:
            self = object.__new__(cls)
            self.function = function
            cls._pool[function] = self
        return self

    def __repr__(self) -> str:
        return f"M({self.function})"


class BParam(BExpr):
    """An integer parameter of a parametric spec (a function argument)."""

    __slots__ = ("name",)
    _pool: dict = {}

    def __new__(cls, name: str) -> "BParam":
        self = cls._pool.get(name)
        if self is None:
            self = object.__new__(cls)
            self.name = name
            cls._pool[name] = self
        return self

    def __repr__(self) -> str:
        return self.name


class BAdd(BExpr):
    __slots__ = ("items",)
    _pool: dict = {}

    def __new__(cls, items: Iterable[BExpr]) -> "BAdd":
        # Interned children hash by identity, so the tuple is a
        # structural key.
        key = tuple(items)
        self = cls._pool.get(key)
        if self is None:
            self = object.__new__(cls)
            self.items = key
            cls._pool[key] = self
        return self

    def __repr__(self) -> str:
        return "(" + " + ".join(map(repr, self.items)) + ")"


class BMax(BExpr):
    __slots__ = ("items",)
    _pool: dict = {}

    def __new__(cls, items: Iterable[BExpr]) -> "BMax":
        key = tuple(items)
        self = cls._pool.get(key)
        if self is None:
            self = object.__new__(cls)
            self.items = key
            cls._pool[key] = self
        return self

    def __repr__(self) -> str:
        return "max(" + ", ".join(map(repr, self.items)) + ")"


class BScale(BExpr):
    """``k * B`` with a non-negative integer constant ``k``."""

    __slots__ = ("factor", "body")
    _pool: dict = {}

    def __new__(cls, factor: int, body: BExpr) -> "BScale":
        if factor < 0:
            raise ValueError("scaling factor must be non-negative")
        key = (factor, body)
        self = cls._pool.get(key)
        if self is None:
            self = object.__new__(cls)
            self.factor = factor
            self.body = body
            cls._pool[key] = self
        return self

    def __repr__(self) -> str:
        return f"{self.factor}·{self.body!r}"


class BFrameDiff(BExpr):
    """``total - part``, used as the constant of a Q:FRAME application.

    Only meaningful when ``part <= total``; evaluation clamps at 0 (which
    matches how the frame rule is used: framing a sub-derivation whose
    precondition is dominated by the target).
    """

    __slots__ = ("total", "part")
    _pool: dict = {}

    def __new__(cls, total: BExpr, part: BExpr) -> "BFrameDiff":
        key = (total, part)
        self = cls._pool.get(key)
        if self is None:
            self = object.__new__(cls)
            self.total = total
            self.part = part
            cls._pool[key] = self
        return self

    def __repr__(self) -> str:
        return f"({self.total!r} - {self.part!r})"


class BMul(BExpr):
    """Product of two parametric bounds (e.g. ``24 * n * n``)."""

    __slots__ = ("left", "right")
    _pool: dict = {}

    def __new__(cls, left: BExpr, right: BExpr) -> "BMul":
        key = (left, right)
        self = cls._pool.get(key)
        if self is None:
            self = object.__new__(cls)
            self.left = left
            self.right = right
            cls._pool[key] = self
        return self

    def __repr__(self) -> str:
        return f"({self.left!r} * {self.right!r})"


class BLog2(BExpr):
    """Paper-convention logarithm: ∞ below 0, 0 at 0, else ceil(log2)."""

    __slots__ = ("arg",)
    _pool: dict = {}

    def __new__(cls, arg: BExpr) -> "BLog2":
        self = cls._pool.get(arg)
        if self is None:
            self = object.__new__(cls)
            self.arg = arg
            cls._pool[arg] = self
        return self

    def __repr__(self) -> str:
        return f"log2({self.arg!r})"


class BHalf(BExpr):
    """``floor(a/2)`` or ``ceil(a/2)`` — the argument shape of divide-and-
    conquer recursions (``bsearch``'s worst recursive call receives
    ``ceil((hi-lo)/2)`` elements)."""

    __slots__ = ("arg", "ceil")
    _pool: dict = {}

    def __new__(cls, arg: BExpr, ceil: bool = False) -> "BHalf":
        key = (arg, ceil)
        self = cls._pool.get(key)
        if self is None:
            self = object.__new__(cls)
            self.arg = arg
            self.ceil = ceil
            cls._pool[key] = self
        return self

    def __repr__(self) -> str:
        name = "ceil_half" if self.ceil else "half"
        return f"{name}({self.arg!r})"


class BParamDiff(BExpr):
    """``a - b`` over parameters (e.g. ``hi - lo``); may go negative.

    A negative intermediate is legal *inside* ``log2`` (where it yields ∞
    per the paper's convention) and is clamped to 0 anywhere a bound in
    ``N ∪ {∞}`` is required.
    """

    __slots__ = ("left", "right")
    _pool: dict = {}

    def __new__(cls, left: BExpr, right: BExpr) -> "BParamDiff":
        key = (left, right)
        self = cls._pool.get(key)
        if self is None:
            self = object.__new__(cls)
            self.left = left
            self.right = right
            cls._pool[key] = self
        return self

    def __repr__(self) -> str:
        return f"({self.left!r} - {self.right!r})"


def bconst(value: Number) -> BConst:
    return BConst(value)


def bmetric(function: str) -> BMetric:
    return BMetric(function)


def bparam(name: str) -> BParam:
    return BParam(name)


def badd(*items: BExpr) -> BExpr:
    flat: list[BExpr] = []
    for item in items:
        if isinstance(item, BAdd):
            flat.extend(item.items)
        elif isinstance(item, BConst) and item.value == 0:
            continue
        else:
            flat.append(item)
    if not flat:
        return BConst(0)
    if len(flat) == 1:
        return flat[0]
    return BAdd(flat)


def bmax(*items: BExpr) -> BExpr:
    flat: list[BExpr] = []
    for item in items:
        if isinstance(item, BMax):
            flat.extend(item.items)
        else:
            flat.append(item)
    flat = [i for i in flat
            if not (isinstance(i, BConst) and i.value == 0)] or [BConst(0)]
    if len(flat) == 1:
        return flat[0]
    return BMax(flat)


TOP = BConst(INFINITY)
ZERO = BConst(0)


def _coerce(value: "BExpr | int") -> BExpr:
    if isinstance(value, BExpr):
        return value
    return BConst(value)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def evaluate(expr: BExpr, metric: Optional[Mapping[str, int]] = None,
             params: Optional[Mapping[str, int]] = None) -> Number:
    """Evaluate under a metric (``M(f)`` prices) and parameter valuation.

    The result is clamped into ``N ∪ {∞}`` except inside ``BParamDiff``
    sub-evaluations (see that class).
    """
    value = _eval(expr, metric, params)
    if value == INFINITY:
        return INFINITY
    return max(0, value)


def _eval(expr: BExpr, metric, params) -> Number:
    if isinstance(expr, BConst):
        return expr.value
    if isinstance(expr, BMetric):
        if metric is None:
            raise ValueError(f"metric needed to evaluate {expr!r}")
        return metric[expr.function]
    if isinstance(expr, BParam):
        if params is None or expr.name not in params:
            raise ValueError(f"parameter {expr.name!r} has no value")
        return params[expr.name]
    if isinstance(expr, BAdd):
        total: Number = 0
        for item in expr.items:
            total += _eval(item, metric, params)
        return total
    if isinstance(expr, BMax):
        return max(_eval(item, metric, params) for item in expr.items)
    if isinstance(expr, BScale):
        return expr.factor * _eval(expr.body, metric, params)
    if isinstance(expr, BFrameDiff):
        total = _eval(expr.total, metric, params)
        part = _eval(expr.part, metric, params)
        if total == INFINITY:
            return INFINITY
        return max(0, total - part)
    if isinstance(expr, BMul):
        return _eval(expr.left, metric, params) * _eval(expr.right, metric, params)
    if isinstance(expr, BLog2):
        arg = _eval(expr.arg, metric, params)
        if arg < 0:
            return INFINITY
        if arg <= 1:
            return 0
        return math.ceil(math.log2(arg))
    if isinstance(expr, BParamDiff):
        return _eval(expr.left, metric, params) - _eval(expr.right, metric, params)
    if isinstance(expr, BHalf):
        value = _eval(expr.arg, metric, params)
        if value == INFINITY:
            return INFINITY
        value = int(value)
        return (value + 1) // 2 if expr.ceil else value // 2
    raise TypeError(f"unknown bound expression {expr!r}")


# ---------------------------------------------------------------------------
# Structural helpers
# ---------------------------------------------------------------------------


def metric_atoms(expr: BExpr) -> set[str]:
    """All function names whose metric the expression mentions."""
    out: set[str] = set()
    _walk(expr, out, kind="metric")
    return out


def param_names(expr: BExpr) -> set[str]:
    out: set[str] = set()
    _walk(expr, out, kind="param")
    return out


def frame_diffs(expr: BExpr) -> list["BFrameDiff"]:
    """Every :class:`BFrameDiff` node inside ``expr``, preorder.

    The checker uses this to discharge the Q:FRAME side condition
    ``part <= total`` for each difference appearing in a frame constant:
    the ``part + (total - part) -> total`` rewrite in the comparators is
    only an equality under that domination, so it must be established
    separately wherever a certificate authors a difference.
    """
    out: list[BFrameDiff] = []
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, BFrameDiff):
            out.append(node)
        stack.extend(reversed(_children(node)))
    return out


def _walk(expr: BExpr, out: set[str], kind: str) -> None:
    if isinstance(expr, BMetric) and kind == "metric":
        out.add(expr.function)
    if isinstance(expr, BParam) and kind == "param":
        out.add(expr.name)
    for child in _children(expr):
        _walk(child, out, kind)


def _children(expr: BExpr) -> tuple[BExpr, ...]:
    if isinstance(expr, (BAdd, BMax)):
        return expr.items
    if isinstance(expr, BScale):
        return (expr.body,)
    if isinstance(expr, BFrameDiff):
        return (expr.total, expr.part)
    if isinstance(expr, (BMul, BParamDiff)):
        return (expr.left, expr.right)
    if isinstance(expr, BLog2):
        return (expr.arg,)
    if isinstance(expr, BHalf):
        return (expr.arg,)
    return ()


def substitute_params(expr: BExpr, mapping: Mapping[str, BExpr]) -> BExpr:
    """Replace parameters by bound expressions (spec instantiation)."""
    if isinstance(expr, BParam):
        return mapping.get(expr.name, expr)
    if isinstance(expr, BAdd):
        return badd(*[substitute_params(i, mapping) for i in expr.items])
    if isinstance(expr, BMax):
        return bmax(*[substitute_params(i, mapping) for i in expr.items])
    if isinstance(expr, BScale):
        return BScale(expr.factor, substitute_params(expr.body, mapping))
    if isinstance(expr, BFrameDiff):
        return BFrameDiff(substitute_params(expr.total, mapping),
                          substitute_params(expr.part, mapping))
    if isinstance(expr, BMul):
        return BMul(substitute_params(expr.left, mapping),
                    substitute_params(expr.right, mapping))
    if isinstance(expr, BLog2):
        return BLog2(substitute_params(expr.arg, mapping))
    if isinstance(expr, BParamDiff):
        return BParamDiff(substitute_params(expr.left, mapping),
                          substitute_params(expr.right, mapping))
    if isinstance(expr, BHalf):
        return BHalf(substitute_params(expr.arg, mapping), expr.ceil)
    return expr


def fold_with_params(expr: BExpr, params: Mapping[str, int]) -> BExpr:
    """Substitute concrete parameter values and fold to a *ground* bound.

    The result contains only constants, metric atoms, sums, maxima and
    scalings — i.e. it is in the max-plus fragment, so the exact
    comparator applies.  This is what turns one instance of a parametric
    side condition (say, the induction step of ``bsearch`` at
    ``hi - lo = 17``) into an exactly decidable question, valid for *all*
    stack metrics at once.

    Negative intermediate values are legal inside ``BParamDiff``/``BLog2``
    (the paper's ∞ convention applies); a negative value reaching a bound
    position is clamped to 0, mirroring :func:`evaluate`.
    """
    kind, value = _fold(expr, params)
    if kind == "num":
        return BConst(_clamp_num(value))
    return value


def _clamp_num(value: Number) -> Number:
    if value == INFINITY:
        return INFINITY
    return max(0, int(value))


def _fold(expr: BExpr, params: Mapping[str, int]):
    """Returns ('num', n) for fully numeric subtrees, else ('expr', b)."""
    if isinstance(expr, BConst):
        return "num", expr.value
    if isinstance(expr, BParam):
        if expr.name not in params:
            raise ValueError(f"no value for parameter {expr.name!r}")
        return "num", params[expr.name]
    if isinstance(expr, BMetric):
        return "expr", expr
    if isinstance(expr, BParamDiff):
        lk, lv = _fold(expr.left, params)
        rk, rv = _fold(expr.right, params)
        if lk != "num" or rk != "num":
            raise ValueError("parameter difference over metric atoms")
        return "num", lv - rv
    if isinstance(expr, BLog2):
        kind, value = _fold(expr.arg, params)
        if kind != "num":
            raise ValueError("log2 of a metric expression")
        if value < 0:
            return "num", INFINITY
        if value <= 1:
            return "num", 0
        return "num", math.ceil(math.log2(value))
    if isinstance(expr, BMul):
        lk, lv = _fold(expr.left, params)
        rk, rv = _fold(expr.right, params)
        if lk == "num" and rk == "num":
            return "num", lv * rv
        if lk == "num":
            return "expr", _scale_folded(lv, rv)
        if rk == "num":
            return "expr", _scale_folded(rv, lv)
        raise ValueError("product of two metric expressions")
    if isinstance(expr, BScale):
        kind, value = _fold(expr.body, params)
        if kind == "num":
            return "num", expr.factor * value
        return "expr", BScale(expr.factor, value)
    if isinstance(expr, BAdd):
        total = 0
        parts: list[BExpr] = []
        for item in expr.items:
            kind, value = _fold(item, params)
            if kind == "num":
                total += value
            else:
                parts.append(value)
        if not parts:
            return "num", total
        if total:
            parts.append(BConst(_clamp_num(total)))
        return "expr", badd(*parts)
    if isinstance(expr, BMax):
        folded = [_fold(item, params) for item in expr.items]
        if all(kind == "num" for kind, _ in folded):
            return "num", max(value for _, value in folded)
        parts = [BConst(_clamp_num(value)) if kind == "num" else value
                 for kind, value in folded]
        return "expr", bmax(*parts)
    if isinstance(expr, BHalf):
        kind, value = _fold(expr.arg, params)
        if kind != "num":
            raise ValueError("half of a metric expression")
        if value == INFINITY:
            return "num", INFINITY
        value = int(value)
        return "num", (value + 1) // 2 if expr.ceil else value // 2
    if isinstance(expr, BFrameDiff):
        lk, lv = _fold(expr.total, params)
        rk, rv = _fold(expr.part, params)
        left = BConst(_clamp_num(lv)) if lk == "num" else lv
        right = BConst(_clamp_num(rv)) if rk == "num" else rv
        return "expr", BFrameDiff(left, right)
    raise TypeError(f"unknown bound expression {expr!r}")


def _scale_folded(factor: Number, body: BExpr) -> BExpr:
    if factor == INFINITY:
        return TOP
    factor_int = int(factor)
    if factor_int < 0:
        raise ValueError(f"negative scale factor {factor}")
    return BScale(factor_int, body)


# ---------------------------------------------------------------------------
# Max-plus normal form for the ground fragment
# ---------------------------------------------------------------------------


class NotGround(Exception):
    """The expression is outside the ground max-plus fragment."""


# Normal-form memoization.  Results live on the interned nodes themselves
# (slot ``_memo_mpnf``), so any two occurrences of the same subtree — even
# in unrelated bound_le queries — share one normalization.  ``NotGround``
# is memoized too (as the sentinel ``_NOT_GROUND``): asking again about a
# parametric subtree is as common as asking about a ground one.
_NOT_GROUND = object()
_memo_enabled = True
_nf_hits = 0
_nf_misses = 0


def configure_memoization(enabled: bool) -> None:
    """Turn normal-form memoization on/off (benchmarks flip this)."""
    global _memo_enabled
    _memo_enabled = enabled


def nf_cache_stats() -> dict:
    """Hit/miss counters of the normal-form memo, for the perf benches."""
    total = _nf_hits + _nf_misses
    return {"hits": _nf_hits, "misses": _nf_misses,
            "hit_rate": _nf_hits / total if total else 0.0}


def reset_nf_cache_stats() -> None:
    global _nf_hits, _nf_misses
    _nf_hits = _nf_misses = 0


def maxplus_normal_form(expr: BExpr) -> frozenset:
    """Normalize a ground expression to a set of (const, atom-multiset).

    The denotation is ``max over terms of (const + sum of priced atoms)``.
    Raises :class:`NotGround` on parametric forms.
    """
    terms = _mpnf(expr)
    return frozenset(_prune_dominated(terms))


def _mpnf(expr: BExpr) -> tuple:
    """Memoizing wrapper around :func:`_mpnf_impl`."""
    global _nf_hits, _nf_misses
    if _memo_enabled:
        try:
            memo = expr._memo_mpnf
        except AttributeError:
            pass
        else:
            _nf_hits += 1
            if memo is _NOT_GROUND:
                raise NotGround(f"not a ground bound: {expr!r}")
            return memo
        _nf_misses += 1
        try:
            terms = tuple(_mpnf_impl(expr))
        except NotGround:
            expr._memo_mpnf = _NOT_GROUND
            raise
        expr._memo_mpnf = terms
        return terms
    return tuple(_mpnf_impl(expr))


def _mpnf_impl(expr: BExpr) -> list[tuple[Number, frozenset]]:
    """Each term is (const, frozenset of (atom, multiplicity))."""
    if isinstance(expr, BConst):
        return [(expr.value, frozenset())]
    if isinstance(expr, BMetric):
        return [(0, frozenset({(expr.function, 1)}))]
    if isinstance(expr, BAdd):
        terms = [(0, frozenset())]
        for item in expr.items:
            terms = _cross_add(terms, _mpnf(item))
        return terms
    if isinstance(expr, BMax):
        out: list[tuple[Number, frozenset]] = []
        for item in expr.items:
            out.extend(_mpnf(item))
        return out
    if isinstance(expr, BScale):
        inner = _mpnf(expr.body)
        if expr.factor == 0:
            return [(0, frozenset())]
        out = []
        for const, atoms in inner:
            scaled_const = const * expr.factor if const != INFINITY else INFINITY
            scaled_atoms = frozenset((name, mult * expr.factor)
                                     for name, mult in atoms)
            out.append((scaled_const, scaled_atoms))
        return out
    if isinstance(expr, BFrameDiff):
        # Only the pattern Add(part, FrameDiff(total, part)) normalizes;
        # it is rewritten by _cross_add below.  A bare FrameDiff is not in
        # the fragment.
        raise NotGround(f"frame-diff outside an Add: {expr!r}")
    raise NotGround(f"not a ground bound: {expr!r}")


def _cross_add(left: list, right: list) -> list:
    out = []
    for const_l, atoms_l in left:
        for const_r, atoms_r in right:
            const = INFINITY if INFINITY in (const_l, const_r) \
                else const_l + const_r
            out.append((const, _merge_atoms(atoms_l, atoms_r)))
    return out


def _merge_atoms(left: frozenset, right: frozenset) -> frozenset:
    counts: dict[str, int] = {}
    for name, mult in left:
        counts[name] = counts.get(name, 0) + mult
    for name, mult in right:
        counts[name] = counts.get(name, 0) + mult
    return frozenset(counts.items())


# Fault-injection knob for the comparator layer (see testing/faults.py):
# "fm-strict-gap-drop" rebuilds the failure-region constraints without the
# integer gap of 1; "fm-nonneg-drop" omits the var >= 0 rows.  Production
# code never sets this.
_FAULT: Optional[str] = None

# Monotone counter ticked whenever Fourier-Motzkin elimination abandons a
# query because it blew past its constraint limit.  The cross-check backend
# snapshots it around each FM call to tell conservative refusals (sound,
# just incomplete) apart from lying ones.
_FM_BLOWUPS = 0


def fm_blowup_count() -> int:
    """Number of FM queries so far abandoned on the constraint limit."""
    return _FM_BLOWUPS


def _tick_blowup() -> None:
    global _FM_BLOWUPS
    _FM_BLOWUPS += 1


def _term_covered(small: tuple, large_terms: Iterable[tuple]) -> bool:
    """Exact coverage: ``small <= max(large_terms)`` pointwise on metrics.

    Termwise domination (:func:`_term_le`) misses inequalities that need a
    case split over the metric — e.g. ``M(f) + 1 <= max(2*M(f), 1)``,
    which holds (take ``1`` at ``M(f) = 0`` and ``2*M(f)`` otherwise) but
    has no single dominating term.  The failure region

        { x >= 0 : large_j(x) <= small(x) - 1  for every j }

    is a rational polyhedron (metrics are integer-valued, so a strict
    violation means a gap of at least 1); if it is empty over the reals it
    contains no integer metric either, and the inequality holds.
    Emptiness is decided by Fourier–Motzkin elimination.
    """
    const_s, atoms_s = small
    if const_s == INFINITY:
        return False
    small_counts = dict(atoms_s)
    variables: set[str] = set(small_counts)
    # Each constraint is (coeffs, const) meaning sum(coeffs*x) + const <= 0.
    constraints: list[tuple[dict, Number]] = []
    for const_l, atoms_l in large_terms:
        if const_l == INFINITY:
            return True
        coeffs: dict[str, Number] = {}
        for name, mult in atoms_l:
            coeffs[name] = coeffs.get(name, 0) + mult
        for name, mult in small_counts.items():
            coeffs[name] = coeffs.get(name, 0) - mult
        coeffs = {name: c for name, c in coeffs.items() if c != 0}
        variables.update(coeffs)
        gap = 0 if _FAULT == "fm-strict-gap-drop" else 1
        constraints.append((coeffs, const_l - const_s + gap))
    if _FAULT != "fm-nonneg-drop":
        for name in variables:
            constraints.append(({name: -1}, 0))
    return not _fm_feasible(constraints, sorted(variables))


def _fm_feasible(constraints: list, variables: list[str],
                 limit: int = 4096) -> bool:
    """Real feasibility of ``{x : sum(coeffs*x) + const <= 0 for all}``.

    Conservatively reports *feasible* if elimination would blow past
    ``limit`` constraints.  The resulting row count ``rest + pos*neg`` is
    known before the product is materialized, so the blowup verdict is
    O(1) instead of the old O(limit^2) of building the product first and
    only then noticing.  Blowups tick :func:`fm_blowup_count` so callers
    can tell the conservative verdict apart from a decided one.
    """
    from fractions import Fraction

    for var in variables:
        pos, neg, rest = [], [], []
        for coeffs, const in constraints:
            a = coeffs.get(var, 0)
            (pos if a > 0 else neg if a < 0 else rest).append((coeffs, const))
        new = rest
        if len(new) + len(pos) * len(neg) > limit:
            _tick_blowup()
            return True
        for cp, kp in pos:
            ap = cp[var]
            for cn, kn in neg:
                an = -cn[var]
                coeffs = {}
                for name, val in cp.items():
                    if name != var:
                        coeffs[name] = coeffs.get(name, 0) + Fraction(val, ap)
                for name, val in cn.items():
                    if name != var:
                        coeffs[name] = coeffs.get(name, 0) + Fraction(val, an)
                coeffs = {name: c for name, c in coeffs.items() if c != 0}
                new.append((coeffs, Fraction(kp, ap) + Fraction(kn, an)))
        constraints = new
    return all(const <= 0 for _coeffs, const in constraints)


def _fm_solve(constraints: list, variables: list[str],
              limit: int = 4096) -> Optional[dict]:
    """A rational point of ``{x : sum(coeffs*x) + const <= 0}``, or None.

    Recursive Fourier–Motzkin with back-substitution; integer coordinates
    are preferred when the feasible interval allows one.
    """
    from fractions import Fraction

    if not variables:
        return {} if all(const <= 0 for _c, const in constraints) else None
    var, rest_vars = variables[0], variables[1:]
    pos, neg, rest = [], [], []
    for coeffs, const in constraints:
        a = coeffs.get(var, 0)
        (pos if a > 0 else neg if a < 0 else rest).append((coeffs, const))
    new = list(rest)
    if len(new) + len(pos) * len(neg) > limit:
        _tick_blowup()
        return None
    for cp, kp in pos:
        ap = cp[var]
        for cn, kn in neg:
            an = -cn[var]
            coeffs = {}
            for name, val in cp.items():
                if name != var:
                    coeffs[name] = coeffs.get(name, 0) + Fraction(val, ap)
            for name, val in cn.items():
                if name != var:
                    coeffs[name] = coeffs.get(name, 0) + Fraction(val, an)
            coeffs = {name: c for name, c in coeffs.items() if c != 0}
            new.append((coeffs, Fraction(kp, ap) + Fraction(kn, an)))
    solution = _fm_solve(new, rest_vars, limit)
    if solution is None:
        return None

    def residual(coeffs, const):
        return const + sum(Fraction(c) * solution[n]
                           for n, c in coeffs.items() if n != var)

    upper = None
    for coeffs, const in pos:  # a*var <= -residual
        bound = Fraction(-residual(coeffs, const), coeffs[var])
        upper = bound if upper is None else min(upper, bound)
    # The lower bound must come only from actual constraints: assuming an
    # implicit var >= 0 here used to pick points *outside* the system when
    # the caller supplied no nonnegativity row (an upper bound below zero
    # made `value` violate it), so witnesses could be fabricated or missed.
    lower = None
    for coeffs, const in neg:  # a*var >= residual  (a = -coeff > 0)
        bound = Fraction(residual(coeffs, const), -coeffs[var])
        lower = bound if lower is None else max(lower, bound)
    if lower is None:
        value = Fraction(0) if upper is None \
            else min(Fraction(0), Fraction(math.floor(upper)))
    else:
        value = Fraction(math.ceil(lower))
        if upper is not None and value > upper:
            value = (lower + upper) / 2
    solution[var] = value
    return solution


def find_violation_metric(small: BExpr, large: BExpr) -> Optional[dict]:
    """An integer metric witnessing ``small > large``, or ``None``.

    Only meaningful after :func:`bound_le` refused a ground comparison;
    tests use it to certify that a refusal is justified by evaluation.
    """
    small = _rewrite_frames(small)
    large = _rewrite_frames(large)
    try:
        small_terms = maxplus_normal_form(small)
        large_terms = maxplus_normal_form(large)
    except NotGround:
        return None
    atoms = sorted(metric_atoms(small) | metric_atoms(large))
    zero = {name: 0 for name in atoms}
    if any(const == INFINITY for const, _a in small_terms) and \
            not any(const == INFINITY for const, _a in large_terms):
        return zero
    for const_s, atoms_s in small_terms:
        if const_s == INFINITY:
            continue
        small_counts = dict(atoms_s)
        variables: set[str] = set(small_counts)
        constraints: list[tuple[dict, Number]] = []
        infinite_cover = False
        for const_l, atoms_l in large_terms:
            if const_l == INFINITY:
                infinite_cover = True
                break
            coeffs: dict[str, Number] = {}
            for name, mult in atoms_l:
                coeffs[name] = coeffs.get(name, 0) + mult
            for name, mult in small_counts.items():
                coeffs[name] = coeffs.get(name, 0) - mult
            coeffs = {name: c for name, c in coeffs.items() if c != 0}
            variables.update(coeffs)
            constraints.append((coeffs, const_l - const_s + 1))
        if infinite_cover:
            continue
        for name in variables:
            constraints.append(({name: -1}, 0))
        point = _fm_solve(constraints, sorted(variables))
        if point is None:
            continue
        # Search the integer neighborhood of the rational point.
        axes = []
        for name in sorted(variables):
            value = point[name]
            floor = max(0, math.floor(value))
            axes.append(sorted({floor, floor + 1, max(0, floor - 1),
                                math.ceil(value)}))
        for combo in itertools.product(*axes):
            metric = dict(zero)
            metric.update(zip(sorted(variables), combo))
            if evaluate(small, metric) > evaluate(large, metric):
                return metric
    return None


def _term_le(small: tuple, large: tuple) -> bool:
    const_s, atoms_s = small
    const_l, atoms_l = large
    if const_l != INFINITY and (const_s == INFINITY or const_s > const_l):
        return False
    large_counts = dict(atoms_l)
    if const_l == INFINITY:
        return True
    for name, mult in atoms_s:
        if large_counts.get(name, 0) < mult:
            return False
    return True


def _prune_dominated(terms: list) -> list:
    out = []
    for index, term in enumerate(terms):
        dominated = any(
            _term_le(term, other) and (not _term_le(other, term) or j < index)
            for j, other in enumerate(terms) if j != index)
        if not dominated:
            out.append(term)
    return out or [(0, frozenset())]


def _rewrite_frames(expr: BExpr) -> BExpr:
    """Rewrite ``part + (total - part) -> total`` (the Q:FRAME shape).

    Memoized on the interned node (slot ``_memo_frames``): every
    :func:`bound_le` call rewrites both sides first, and derivation
    re-checks compare the same bounds many times.
    """
    if _memo_enabled:
        try:
            return expr._memo_frames
        except AttributeError:
            pass
        result = _rewrite_frames_impl(expr)
        expr._memo_frames = result
        return result
    return _rewrite_frames_impl(expr)


def _rewrite_frames_impl(expr: BExpr) -> BExpr:
    if isinstance(expr, BAdd):
        items = [_rewrite_frames(i) for i in expr.items]
        diffs = [i for i in items if isinstance(i, BFrameDiff)]
        for diff in diffs:
            rest = list(items)
            rest.remove(diff)
            if _syntactically_equal(badd(*rest), diff.part):
                return _rewrite_frames(diff.total)
        return badd(*items)
    if isinstance(expr, BMax):
        return bmax(*[_rewrite_frames(i) for i in expr.items])
    if isinstance(expr, BScale):
        return BScale(expr.factor, _rewrite_frames(expr.body))
    if isinstance(expr, BFrameDiff):
        total = _rewrite_frames(expr.total)
        part = _rewrite_frames(expr.part)
        if isinstance(part, BConst) and part.value == 0:
            return total
        return BFrameDiff(total, part)
    return expr


def _syntactically_equal(a: BExpr, b: BExpr) -> bool:
    # Hash-consing makes structural equality an identity check for nodes
    # built through the constructors; the repr fallback keeps the old
    # behavior for pickled/copied expressions that bypassed interning.
    return a is b or repr(a) == repr(b)


# ---------------------------------------------------------------------------
# The order on bounds
# ---------------------------------------------------------------------------


class CompareResult:
    """Outcome of a bound comparison: holds + whether it was exact."""

    __slots__ = ("holds", "exact")

    def __init__(self, holds: bool, exact: bool) -> None:
        self.holds = holds
        self.exact = exact

    def __bool__(self) -> bool:
        return self.holds

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CompareResult):
            return NotImplemented
        return (self.holds, self.exact) == (other.holds, other.exact)

    def __hash__(self) -> int:
        return hash((self.holds, self.exact))

    def __repr__(self) -> str:
        return f"CompareResult(holds={self.holds}, exact={self.exact})"


# Module-level default decision backend.  "fm" is the historical
# Fourier-Motzkin / sampled procedure; "z3" and "cross" dispatch through
# repro.logic.smt (imported lazily so the z3 dependency stays optional and
# the import graph acyclic).  Selected via --bounds-backend on the CLI,
# the CheckerContext knob, or set_default_backend().
_BACKEND = "fm"


def set_default_backend(name: str) -> None:
    """Select the process-wide default ``bound_le`` backend."""
    global _BACKEND
    if name not in ("fm", "z3", "cross"):
        raise ValueError(f"unknown bounds backend {name!r}; "
                         f"known: fm, z3, cross")
    _BACKEND = name


def get_default_backend() -> str:
    return _BACKEND


def bound_le(small: BExpr, large: BExpr,
             param_domains: Optional[Mapping[str, Iterable[int]]] = None,
             metric_samples: Optional[Iterable[Mapping[str, int]]] = None,
             backend: Optional[str] = None,
             memo: Optional[SampleMemo] = None) -> CompareResult:
    """Decide ``small <= large`` (pointwise over metrics and parameters).

    Dispatches on ``backend`` (or the module default): ``fm`` is the
    Fourier-Motzkin / sampled procedure below, ``z3`` the SMT backend in
    :mod:`repro.logic.smt`, ``cross`` the agree-or-fail differential mode
    that runs both and raises on any mismatch.  ``memo`` caches the
    sampled procedure's value vectors across the queries of one check.
    """
    chosen = backend or _BACKEND
    if chosen != "fm":
        from repro.logic import smt
        return smt.dispatch_bound_le(small, large, param_domains,
                                     metric_samples, chosen, memo)
    return fm_bound_le(small, large, param_domains, metric_samples, memo)


def fm_bound_le(small: BExpr, large: BExpr,
                param_domains: Optional[Mapping[str, Iterable[int]]] = None,
                metric_samples: Optional[Iterable[Mapping[str, int]]] = None,
                memo: Optional[SampleMemo] = None) -> CompareResult:
    """The Fourier-Motzkin / exhaustive-evaluation decision procedure.

    Ground expressions are compared exactly via max-plus normal forms.
    Parametric expressions are compared by exhaustive evaluation over the
    given ``param_domains`` (and metric samples), which reproduces the
    role of the Coq side-condition proofs on a finite verification domain.
    """
    if isinstance(small, BConst) and small.value == 0:
        # Every bound denotes a value in N ∪ {∞} (evaluation clamps), so
        # 0 is a global lower bound.
        return CompareResult(True, True)
    small = _rewrite_frames(small)
    large = _rewrite_frames(large)
    try:
        small_terms = maxplus_normal_form(small)
        large_terms = maxplus_normal_form(large)
    except NotGround:
        return _bound_le_sampled(small, large, param_domains, metric_samples,
                                 memo)
    for term in small_terms:
        if not any(_term_le(term, other) for other in large_terms):
            if not _term_covered(term, large_terms):
                return CompareResult(False, True)
    return CompareResult(True, True)


def _default_metric_samples(atoms: set[str]) -> list[dict[str, int]]:
    ordered = sorted(atoms)
    samples: list[dict[str, int]] = [
        {name: 8 for name in ordered},
        {name: 8 * (index + 1) for index, name in enumerate(ordered)},
        {name: 8 * (len(ordered) - index) for index, name in enumerate(ordered)},
        {name: 0 for name in ordered},
    ]
    return samples


def _sampled_grid_inputs(small: BExpr, large: BExpr, param_domains,
                         metric_samples):
    """``(names, domains, metrics)`` of a sampled query's grid.

    Raises the missing-domain ``ValueError`` before anything is
    evaluated; both sampled procedures start here.
    """
    params = param_names(small) | param_names(large)
    if param_domains is None:
        param_domains = {}
    missing = params - set(param_domains)
    if missing:
        raise ValueError(
            f"no verification domain for parameters {sorted(missing)}")
    metrics = list(metric_samples) if metric_samples is not None \
        else _default_metric_samples(metric_atoms(small) | metric_atoms(large))
    names = sorted(params)
    domains = [list(param_domains[name]) for name in names]
    return names, domains, metrics


def _bound_le_sampled_reference(small: BExpr, large: BExpr, param_domains,
                                metric_samples) -> CompareResult:
    """The sampled order, point by point through :func:`evaluate`.

    This is the definition :func:`_bound_le_sampled` must reproduce; the
    ``cross`` backend re-decides every sampled verdict with it.
    """
    names, domains, metrics = _sampled_grid_inputs(
        small, large, param_domains, metric_samples)
    return _sampled_by_points(small, large, names, domains, metrics)


def _sampled_by_points(small: BExpr, large: BExpr, names: list,
                       domains: list, metrics: list) -> CompareResult:
    for metric in metrics:
        for combo in itertools.product(*domains) if names else [()]:
            valuation = dict(zip(names, combo))
            if evaluate(small, metric, valuation) > \
                    evaluate(large, metric, valuation):
                return CompareResult(False, False)
    return CompareResult(True, False)


class SampleMemo:
    """Value vectors and verdicts of the sampled comparator, per grid.

    One memo serves one derivation check (see
    :class:`repro.logic.checker.CheckerContext`): the side conditions of
    a recursive spec ask about the same subtrees on the same grid over
    and over.  The checker clears it when the check returns, so a
    long-lived process holds no vectors between requests.
    """

    __slots__ = ("grids",)

    def __init__(self) -> None:
        self.grids: dict = {}

    def clear(self) -> None:
        self.grids.clear()

    def __len__(self) -> int:
        return len(self.grids)


class _Grid:
    """One verification grid: the parameter domains × the metric samples.

    A value vector has one cell per (metric sample, parameter combo), in
    the order of the reference loop: metric samples outermost, then
    ``itertools.product`` over the domains of the sorted parameters.
    """

    __slots__ = ("names", "domains", "metrics", "combos", "size",
                 "vectors", "clamped", "verdicts")

    def __init__(self, names: list, domains: list, metrics: list) -> None:
        self.names = names
        self.domains = domains
        self.metrics = metrics
        self.combos = math.prod(len(domain) for domain in domains)
        self.size = self.combos * len(metrics)
        self.vectors: dict[BExpr, list] = {}
        self.clamped: dict[BExpr, list] = {}
        self.verdicts: dict[tuple, bool] = {}

    def vector(self, expr: BExpr) -> list:
        vec = self.vectors.get(expr)
        if vec is None:
            vec = self._build(expr)
            self.vectors[expr] = vec
        return vec

    def top(self, expr: BExpr) -> list:
        """``expr``'s vector under evaluate()'s top-level clamp."""
        vec = self.clamped.get(expr)
        if vec is None:
            vec = list(map(_clamp_top, self.vector(expr)))
            self.clamped[expr] = vec
        return vec

    def _build(self, expr: BExpr) -> list:
        # Cell for cell the arithmetic of _eval, so ∞, NaN (0·∞), negative
        # parameter differences and the errors it raises come out alike.
        if isinstance(expr, BConst):
            return [expr.value] * self.size
        if isinstance(expr, BMetric):
            out: list = []
            for metric in self.metrics:
                out += [metric[expr.function]] * self.combos
            return out
        if isinstance(expr, BParam):
            index = self.names.index(expr.name)
            stride = math.prod(len(d) for d in self.domains[index + 1:])
            block = [value for value in self.domains[index]
                     for _ in range(stride)]
            return block * (self.size // max(1, len(block)))
        if isinstance(expr, BAdd):
            total = [0] * self.size
            for item in expr.items:
                total = list(map(operator.add, total, self.vector(item)))
            return total
        if isinstance(expr, BMax):
            if not expr.items:
                raise ValueError("max of no bounds")
            return [max(cells) for cells in
                    zip(*(self.vector(item) for item in expr.items))]
        if isinstance(expr, BScale):
            factor = expr.factor
            return [factor * value for value in self.vector(expr.body)]
        if isinstance(expr, BFrameDiff):
            return [INFINITY if total == INFINITY else max(0, total - part)
                    for total, part in zip(self.vector(expr.total),
                                           self.vector(expr.part))]
        if isinstance(expr, BMul):
            return list(map(operator.mul, self.vector(expr.left),
                            self.vector(expr.right)))
        if isinstance(expr, BLog2):
            return [INFINITY if arg < 0 else 0 if arg <= 1
                    else math.ceil(math.log2(arg))
                    for arg in self.vector(expr.arg)]
        if isinstance(expr, BParamDiff):
            return list(map(operator.sub, self.vector(expr.left),
                            self.vector(expr.right)))
        if isinstance(expr, BHalf):
            shift = 1 if expr.ceil else 0
            return [INFINITY if value == INFINITY
                    else (int(value) + shift) // 2
                    for value in self.vector(expr.arg)]
        raise TypeError(f"unknown bound expression {expr!r}")

    def holds(self, small: BExpr, large: BExpr) -> bool:
        key = (small, large)
        verdict = self.verdicts.get(key)
        if verdict is None:
            small_vec, large_vec = self.top(small), self.top(large)
            if _FAULT == "sampled-grid-truncate":
                small_vec = small_vec[:-1]
            verdict = not any(map(operator.gt, small_vec, large_vec))
            self.verdicts[key] = verdict
        return verdict


def _clamp_top(value: Number) -> Number:
    # evaluate()'s clamp: max(0, NaN) is 0, as it always was.
    return INFINITY if value == INFINITY else max(0, value)


def _bound_le_sampled(small: BExpr, large: BExpr, param_domains,
                      metric_samples, memo: Optional[SampleMemo] = None
                      ) -> CompareResult:
    """The sampled order, decided on value vectors over the whole grid.

    Every node is evaluated once per grid into a vector (memoized in
    ``memo`` when memoization is on), and the clamped vectors of the two
    sides are compared cell by cell.  Where building a vector raises —
    a metric sample lacking an atom, ``int()`` of a NaN — the reference
    loop decides instead, so the query raises the same error, or finds
    the violation that precedes it, exactly as before.
    """
    names, domains, metrics = _sampled_grid_inputs(
        small, large, param_domains, metric_samples)
    if memo is not None and _memo_enabled:
        key = (tuple(names), tuple(map(tuple, domains)),
               tuple(tuple(sorted(metric.items())) for metric in metrics))
        grid = memo.grids.get(key)
        if grid is None:
            grid = memo.grids[key] = _Grid(names, domains, metrics)
    else:
        grid = _Grid(names, domains, metrics)
    try:
        holds = grid.holds(small, large)
    except (LookupError, ValueError, ArithmeticError, TypeError):
        return _sampled_by_points(small, large, names, domains, metrics)
    return CompareResult(holds, False)


def bound_equal(a: BExpr, b: BExpr, **kwargs) -> CompareResult:
    le = bound_le(a, b, **kwargs)
    if not le.holds:
        return le
    ge = bound_le(b, a, **kwargs)
    return CompareResult(ge.holds, le.exact and ge.exact)
