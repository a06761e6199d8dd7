"""Exact pattern maximization and the 2D competitive-ratio certificate.

The 2D analysis bounds the weight a single bin can carry.  For a weighting
function ``fn`` that is constant on each type interval and linear with slope
``fn.tail_slope`` on the tail ``(0, eps]``, the worst single-bin total

    P(fn) = max  sum_m x_m * fn.values[m]  +  (1 - sum_m x_m * c_m) * slope
    s.t.   sum_m x_m * c_m <= 1,   x integer >= 0,   caps and cuts,

where ``c_m = t[m+1]`` is the infimum size of type m (tiny items fill the
leftover capacity at the tail rate).  The caps and the compound cuts encode
the strictness of item sizes (``x > t[m+1]``), which the closed knapsack
constraint alone cannot express.

Two independent maximizers are provided:

  * :func:`pattern_max` -- best-first depth-first branch and bound, a loop
    over an explicit stack, whose node bound is the greedy fractional
    relaxation (density order, caps only).  Sizes and gains are scaled to
    common integer grids, so the search is exact and runs on integers alone.
  * :func:`brute_force_max` -- plain exhaustive enumeration, usable on
    truncated models (at most 15 types); kept free of the ordering and
    pruning machinery so it can serve as an independent oracle.

The cut audit (:func:`validate_cut`, :func:`cut_max_lhs`) runs on
:func:`pattern_max` too, over the strict model of genuine patterns.

The certificate machinery combines a per-coordinate weighting pair: for
cases i, j of the 1D weighting set,

    f(y) = lam * W_H(y) + (1 - lam) * W^i(y)
    g(x) = sup_y  W(x, y) / f(y),
    W(x, y) = (W_H(x) W^i(y) + W^j(x) W_H(y)) / 2

so that W(x, y) <= f(y) g(x) pointwise and the single-bin weight of W is at
most P(f) P(g).  Both f and g are piecewise constant on the type intervals
with a linear tail; the supremum over y is a maximum of dot products with 51
points (each interval plus the tail, where the linear slopes cancel), taken
over the vertices of their upper-right convex hull, which gift wrapping finds
on the points' own small integers, as homogeneous triples (X, Y, W), with no
common scale and no sort.  W_H and the case weights W^c are read from
:class:`~harmonicpack.weighting.WeightFunctionSet` as integers over its one
denominator; this module derives no weight itself.
From there to :func:`pattern_max` a function stays integers over one
denominator (:class:`PiecewiseFn`): f, g, their six-decimal quantization and
the search's gains are built without a Fraction per type.  f and its hull
depend on the pair only through (i, lam), so :func:`ratio_certificate` keeps
one entry per distinct (i, lam) -- the hull (:func:`ratio_hull`), P(f) and
its argmax -- and :func:`build_g` forms each exact g from that one hull.

The certificate runs in one of two modes, which differ in what
:func:`ratio_certificate` alone hands the maximizer:

  * ``mode="paper-compat"`` reproduces the published reference pipeline:
    the sizes and the f and g values are quantized to six decimal places
    (the reference data files carried six), and every tail slope is pinned
    to the common value 1/(1-eps) (as in the published model file).  This
    reproduces 92 of the 98 published table values exactly; four of the
    other six sit on exact decimal-half rounding ties that the original
    pipeline's binary arithmetic decided (see the test-suite notes).
  * ``mode="exact"`` keeps all data exact and uses the true supremum tail
    slope of g, which can exceed 1/(1-eps) whenever lam != 1/2.  This is
    the sound mode; the certifier reports both so the gap is visible.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from math import ceil, gcd, lcm

from .params import Frozen, ParamTable, builtin_shplus, on_one_denominator, parse_rational
from .weighting import WeightFunctionSet


# -- piecewise weight functions --------------------------------------------

class PiecewiseFn(Frozen):
    """A weight function: the value ``nums[m] / den`` on type interval m plus a
    linear tail of slope ``tail_slope`` on (0, eps].

    ``nums`` is 1-based (index 0 is None) and need not be in lowest terms
    over ``den``.  The certificate keeps a function on these integers from
    the weight set to :func:`pattern_max`; ``values`` holds the same values
    as Fractions for the oracle, the reports and the tests, and
    :meth:`from_values` builds a function from rationals.
    """

    def __init__(self, nums: tuple, den: int, tail_slope: Fraction):
        self._set(nums=nums, den=den, tail_slope=tail_slope)

    @classmethod
    def from_values(cls, values, tail_slope: Fraction) -> "PiecewiseFn":
        """The function taking the rationals ``values`` on types 1, 2, ...,
        on the lcm of their denominators."""
        den, nums = on_one_denominator(tuple(values))
        return cls(nums=(None, *nums), den=den, tail_slope=tail_slope)

    @property
    def ntypes(self) -> int:
        return len(self.nums) - 1

    @cached_property
    def values(self) -> tuple:
        """values[m] = nums[m] / den as a Fraction (1-based, index 0 is None)."""
        return (None, *(Fraction(n, self.den) for n in self.nums[1:]))


def build_f(case: int, lam: Fraction, wset: WeightFunctionSet) -> PiecewiseFn:
    """Mix of the height weight and the 1D case weight: lam*W_H + (1-lam)*W^case.

    Both components have tail slope 1/(1-eps), so the mix does too, and both
    are integers over the weight set's one denominator D: with lam = p/q the
    mix is p*H + (q-p)*B over q*D.
    """
    if not 0 <= lam <= 1:
        raise ValueError("lam must lie in [0, 1]")
    D, p, q = wset.den, lam.numerator, lam.denominator
    return PiecewiseFn(nums=(None, *(p * h + (q - p) * b for h, b
                                     in zip(wset.height[1:], wset.rows[case][1:]))),
                       den=q * D, tail_slope=wset.tail_slope)


def _upper_right_hull(points) -> list:
    """Hull vertices that can maximise a direction (a > 0, b >= 0), for
    homogeneous points (X, Y, W), W > 0, standing for (X/W, Y/W): gift
    wrapping from the rightmost point, the highest of ties.  Each step moves
    to the point above the current one with no point above it beyond the edge
    (the sign of a 3x3 determinant), the farthest of collinear ones, and the
    chain stops where no point is higher."""
    c = points[0]
    for p in points:
        d = p[0] * c[2] - c[0] * p[2]
        if d > 0 or d == 0 and p[1] * c[2] > c[1] * p[2]:
            c = p
    hull = [c]
    while True:
        X, Y, W = c
        q = None
        for r in points:
            if r[1] * W <= Y * r[2]:
                continue  # not above c
            if q is not None:
                # det(c, q, r) = r . (c x q): below zero, r lies beyond c -> q
                s = r[0] * a + r[1] * b + r[2] * e
                if s > 0 or s == 0 and r[1] * q[2] <= q[1] * r[2]:
                    continue
            q = r
            a, b, e = Y * q[2] - W * q[1], W * q[0] - X * q[2], X * q[1] - Y * q[0]
        if q is None:
            return hull
        hull.append(q)
        c = q


def ratio_hull(case_i: int, f: PiecewiseFn, wset: WeightFunctionSet) -> list:
    """The upper-right hull of the 51 ratio points of ``f``, the strictly
    positive mix :func:`build_f` gives for ``case_i``, as homogeneous integer
    triples (X, Y, W).  For y in interval n, W(x,y) / f(y) is the dot product
    of (W_H(x), W^j(x)) with the point (B^i_n, H_n) / (2 f_n); with the
    weights integers over D and f_n = u_n/F that is (B^i_n F, H_n F, 2 D u_n).
    For a tail y the linear slopes cancel and the point is (1, 1, 2).  Only
    the vertices can attain the supremum g, whatever the case j."""
    D, F, h = wset.den, f.den, wset.height
    fv = f.nums[1:len(h)]
    if any(u <= 0 for u in fv) or f.tail_slope <= 0:
        raise ValueError("f must be strictly positive to form the ratio g")
    return _upper_right_hull([(1, 1, 2)] + [
        (b * F, hn * F, 2 * D * u) for b, hn, u in zip(wset.rows[case_i][1:], h[1:], fv)])


def build_g(case_j: int, hull: list, wset: WeightFunctionSet) -> PiecewiseFn:
    """Supremum-ratio partner of f, g(x) = sup_y W(x,y) / f(y), from f's
    :func:`ratio_hull`: on interval m the largest dot product of a vertex with
    (W_H(x), W^j(x)) = (H_m, B^j_m), and on the tail, where both are
    x/(1-eps), the direction (1, 1) gives g's exact slope.  On V = lcm of the
    vertices' W the products are integers over D*V; g keeps them divided by
    their common gcd, on its reduced denominator."""
    V = lcm(*(w for _, _, w in hull))
    vertices = [(x * (V // w), y * (V // w)) for x, y, w in hull]
    D, slope = wset.den, wset.tail_slope
    nums = [max(hm * x + b * y for x, y in vertices)
            for hm, b in zip(wset.height[1:], wset.rows[case_j][1:])]
    c = gcd(D * V, *nums)
    return PiecewiseFn(nums=(None, *(n // c for n in nums)), den=D * V // c,
                       tail_slope=Fraction(slope.numerator * max(x + y for x, y in vertices),
                                           slope.denominator * V))


# -- the integer pattern model ----------------------------------------------

class LinearCut(namedtuple("LinearCut", [
        "name",
        "coeffs",  # ((type, Fraction coeff), ...) sorted by type
        "rhs",
])):
    """A linear constraint sum coeff[m]*x_m <= rhs with nonnegative coeffs."""

    __slots__ = ()

    @classmethod
    def make(cls, name, coeffs: dict, rhs) -> "LinearCut":
        items = tuple(sorted((int(m), parse_rational(c)) for m, c in coeffs.items()))
        return cls(name=name, coeffs=items, rhs=parse_rational(rhs))

    @property
    def support(self) -> tuple:
        return tuple(m for m, _ in self.coeffs)

    def lhs(self, pattern: dict) -> Fraction:
        return sum((c * pattern.get(m, 0) for m, c in self.coeffs), Fraction(0))


class PatternModel(Frozen):
    """Feasible integer patterns of one bin, under caps and cuts.

    ``sizes[m]`` is the infimum size of a type-m item; the knapsack
    constraint is the closed form sum x_m sizes[m] <= capacity.  ``caps``
    are per-variable integer bounds; ``constraints`` the multi-variable
    rows, such as the compound cuts.
    """

    def __init__(self, sizes: tuple, caps: tuple, constraints: tuple,
                 capacity: Fraction = Fraction(1)):
        # sizes and caps 1-based (index 0 None), constraints of LinearCut
        self._set(sizes=sizes, caps=caps, constraints=constraints, capacity=capacity)

    @property
    def ntypes(self) -> int:
        return len(self.sizes) - 1

    @cached_property
    def grid(self) -> tuple:
        """(S, CAP, G, rows): sizes[m] = S[m]/G, capacity = CAP/G, and each
        constraint as integers (rhs, ((type, coeff), ...)) over its own denominator."""
        G, (CAP, *S) = on_one_denominator((self.capacity, *self.sizes[1:]))
        rows = []
        for cut in self.constraints:
            _, (rhs, *coeffs) = on_one_denominator((cut.rhs, *(c for _, c in cut.coeffs)))
            rows.append((rhs, tuple(zip(cut.support, coeffs))))
        return (None, *S), CAP, G, rows

    @cached_property
    def solver(self) -> tuple:
        """(caps, var_rows, dens) for :func:`pattern_max`, per type m: its cap
        min(caps[m], CAP // S[m]), the (row, coeff) pairs of the grid's rows it
        is in, and P // S[m] for one common multiple P of all sizes S."""
        (_, *S), CAP, _, rows = self.grid
        var_rows = [[] for _ in S]
        for ci, (_, coeffs) in enumerate(rows):
            for m, c in coeffs:
                if m <= len(S):
                    var_rows[m - 1].append((ci, c))
        P = lcm(*S)
        return ((None, *(min(c, CAP // s) for c, s in zip(self.caps[1:], S))),
                (None, *var_rows), (None, *(P // s for s in S)))

    @cached_property
    def strict(self) -> "PatternModel":
        """The genuine patterns of the model's types, built once.

        Genuine items lie strictly above their types' infimum sizes, so on the
        model's integer grid a genuine pattern fits one grid unit below the
        capacity: capacity ``(CAP-1)/G``, caps ``(CAP-1)//S[m]`` and no
        constraints.
        """
        S, CAP, G, _ = self.grid
        return PatternModel(sizes=self.sizes, constraints=(),
                            caps=(None, *((CAP - 1) // s for s in S[1:])),
                            capacity=Fraction(CAP - 1, G))


# groups of the built-in 50-type model whose items share one published cap;
# every cap, of a group or of a single type, is derived by _genuine_cap()
_GROUPS = [
    ("group_1_7", range(1, 8)),
    ("group_8_13", range(8, 14)),
    ("pair_18_19", (18, 19)),
]

_COMPOUND_CUTS = [
    ("cut_7_15", {7: 2, 15: 1}, "3.9"),
    ("cut_7_13_17", {7: 3, 13: 2, 17: 1}, "5.9"),
    ("cut_13_15_24", {13: 4, 15: 3, 24: 1}, "11.9"),
    ("cut_7_11_18", {7: 5, 11: "3.53", 18: "1.47"}, 9),
    ("cut_7_13_20_36", {7: 12, 13: 8, 20: 3, 36: 1}, 23),
    ("cut_7_13_21_30", {7: 9, 13: 6, 21: 2, 30: 1}, 17),
]


def _genuine_cap(table: ParamTable, types) -> int:
    """Most items of ``types``, each above t[max(types)+1], in one bin."""
    return ceil(1 / table.t[max(types) + 1]) - 1


def _require_builtin(table: ParamTable) -> None:
    """Refuse a table other than the built-in one, whose constraints these are."""
    if table != builtin_shplus():
        raise ValueError("the compound cuts hold for the built-in table only; "
                         "build this table's model without cuts")


def shplus_pattern_model(table: ParamTable, include_cuts: bool = True,
                         num_types: int | None = None) -> PatternModel:
    """The pattern model of a table (sizes t[m+1], per-type caps) over types
    1..num_types (all k by default).  The compound cuts, each keeping the terms
    of those types and dropped when none is left, hold for the built-in table
    alone: any other table with ``include_cuts`` raises ValueError."""
    n = table.k if num_types is None else num_types
    cons = []
    if include_cuts:
        _require_builtin(table)
        cons = [LinearCut.make(name, {m: c for m, c in coeffs.items() if m <= n}, rhs)
                for name, coeffs, rhs in _COMPOUND_CUTS if min(coeffs) <= n]
    return PatternModel(sizes=(None, *(table.t[m + 1] for m in range(1, n + 1))),
                        caps=(None, *(_genuine_cap(table, (m,)) for m in range(1, n + 1))),
                        constraints=tuple(cons))


def builtin_model_constraints(table: ParamTable) -> list:
    """The published constraints: the group caps, the caps of ungrouped types
    and the compound cuts.  A group over its cap breaks its largest type's cap
    or, by the infimum sizes, the knapsack row, so the solved model leaves the
    group caps out.  Any other table raises ValueError."""
    _require_builtin(table)
    grouped = {m for _, types in _GROUPS for m in types}
    cons = [LinearCut.make(name, {m: 1 for m in types}, _genuine_cap(table, types))
            for name, types in _GROUPS]
    cons += [LinearCut.make(f"cap_{m}", {m: 1}, _genuine_cap(table, (m,)))
             for m in range(1, table.k + 1) if m not in grouped]
    cons += [LinearCut.make(name, coeffs, rhs) for name, coeffs, rhs in _COMPOUND_CUTS]
    return cons


# -- exact maximization ------------------------------------------------------

def pattern_max(fn: PiecewiseFn, model: PatternModel):
    """Exact maximum of the single-bin weight program; returns (value, pattern).

    Branch and bound on the model's integer grid with the gains scaled to
    integers over one common denominator L.  The node bound is the greedy
    fractional relaxation over the unbranched variables at full caps (valid
    as branching follows a fixed order), multiplied through by the size of
    its fractional variable.  Every comparison, the density sort's too, is the
    rational one times a positive integer: the argmax and its ties are unchanged.
    The search loops over a stack of (idx, rem, obj) frames, one per node with
    children left, its branch value in x[idx], on :attr:`PatternModel.solver`.
    """
    if fn.ntypes < model.ntypes:
        raise ValueError("weight function does not cover all model types")
    R = fn.tail_slope
    S, CAP, G, rows = model.grid
    mcaps, mrows, dens = model.solver
    # gain of type m: values[m] - sizes[m]*R = (nums[m]*(L/den) - S[m]*r) / L,
    # where R/G = r/L
    L = lcm(fn.den, R.denominator * G)
    r, per = R.numerator * (L // (R.denominator * G)), L // fn.den
    gains = {m: fn.nums[m] * per - S[m] * r for m in range(1, model.ntypes + 1)}
    # density order, ties broken by type index: gain/size is gain*dens[m]/P
    cand = [m for _, m in sorted((-g * dens[m], m) for m, g in gains.items()
                                 if g > 0 and S[m] <= CAP)]
    ncand = len(cand)
    caps = [mcaps[m] for m in cand]
    sizes = [S[m] for m in cand]
    gain = [gains[m] for m in cand]
    var_cons = [mrows[m] for m in cand]  # the constraint rows of each candidate

    # prefix sums over candidate order for the greedy bound
    PS = [0, *accumulate(s * c for s, c in zip(sizes, caps))]
    PW = [0, *accumulate(w * c for w, c in zip(gain, caps))]

    best_val = 0
    best_pat: dict = {}
    x = [0] * ncand
    slack = [rhs for rhs, _ in rows]
    stack = []  # (idx, rem, obj) of each node with children left
    idx, rem, obj = 0, CAP, 0
    while True:
        # visit the node x[:idx], with rem capacity left and gain obj
        if obj > best_val:
            best_val = obj
            best_pat = {cand[t]: x[t] for t in range(idx) if x[t]}
        if idx < ncand:
            # prune when the greedy bound cannot beat best_val: candidates
            # idx..p-1 at their caps and p fractional fill the remaining capacity
            budget = PS[idx] + rem
            p = bisect_right(PS, budget) - 1
            if p >= ncand:
                keep = obj + PW[ncand] - PW[idx] > best_val
            else:
                keep = (obj + PW[p] - PW[idx] - best_val) * sizes[p] \
                    + (budget - PS[p]) * gain[p] > 0
            if keep:
                # branch on x[idx] = vmax, ..., 0; the node with vmax = 0 has
                # its one child in place
                vmax = min(caps[idx], rem // sizes[idx])
                for ci, co in var_cons[idx]:
                    vmax = min(vmax, slack[ci] // co)
                x[idx] = vmax
                if vmax:
                    for ci, co in var_cons[idx]:
                        slack[ci] -= co * vmax
                    stack.append((idx, rem, obj))
                    rem, obj = rem - vmax * sizes[idx], obj + vmax * gain[idx]
                idx += 1
                continue
        # backtrack: the next branch value of the deepest node with children left
        if not stack:
            break
        idx, rem, obj = stack[-1]
        for ci, co in var_cons[idx]:
            slack[ci] += co
        v = x[idx] = x[idx] - 1
        if not v:
            stack.pop()
        rem, obj, idx = rem - v * sizes[idx], obj + v * gain[idx], idx + 1
    return Fraction(R.numerator * (L // R.denominator) + best_val, L), best_pat


_BRUTE_FORCE_NODES = 10 ** 8  # the largest enumeration space brute_force_max takes


def brute_force_max(fn: PiecewiseFn, model: PatternModel):
    """Independent oracle: exhaustive enumeration of all feasible patterns.

    Restricted to small models (at most 15 types); refuses when the raw
    enumeration space exceeds ``_BRUTE_FORCE_NODES``.
    """
    n = model.ntypes
    if n > 15:
        raise ValueError("brute force restricted to at most 15 types")
    S, CAP, _, _ = model.grid
    est = 1
    for m in range(1, n + 1):
        est *= min(model.caps[m], CAP // S[m]) + 1
        if est > _BRUTE_FORCE_NODES:
            raise ValueError(f"enumeration space exceeds {_BRUTE_FORCE_NODES} nodes")
    R = fn.tail_slope
    best_val = R  # empty pattern
    best_pat: dict = {}
    pattern = [0] * (n + 1)

    def rec(m: int, rem: int, val: Fraction):
        nonlocal best_val, best_pat
        if val > best_val:
            best_val = val
            best_pat = {i: pattern[i] for i in range(1, m) if pattern[i]}
        if m > n:
            return
        vmax = min(model.caps[m], rem // S[m])
        for v in range(vmax + 1):
            pattern[m] = v
            if all(cut.lhs({i: pattern[i] for i in range(1, m + 1)}) <= cut.rhs
                   for cut in model.constraints):
                rec(m + 1, rem - v * S[m],
                    val + v * (fn.values[m] - model.sizes[m] * R))
        pattern[m] = 0

    rec(1, CAP, R)
    return best_val, best_pat


# -- cut validation -----------------------------------------------------------

def cut_max_lhs(cut: LinearCut, model: PatternModel):
    """Maximum of the cut's left side over genuine patterns; (value, pattern).

    :func:`pattern_max` maximizes the cut's nonnegative coefficients with a
    zero tail over :attr:`PatternModel.strict`; types outside the cut gain
    nothing and stay out of the search.
    Used to validate cuts, to derive the tightest valid right-hand side and to
    build mutation tests (any rhs strictly below this maximum admits a
    counterexample).
    """
    coeff = dict(cut.coeffs)
    fn = PiecewiseFn.from_values((coeff.get(m, 0) for m in range(1, model.ntypes + 1)),
                                 tail_slope=Fraction(0))
    return pattern_max(fn, model.strict)


def validate_cut(cut: LinearCut, model: PatternModel) -> dict | None:
    """Check that no genuine pattern violates ``cut``; None when valid.

    Otherwise returns the heaviest counterexample, the argmax pattern of
    :func:`cut_max_lhs`.
    """
    peak, pattern = cut_max_lhs(cut, model)
    return pattern if peak > cut.rhs else None


# -- certificate assembly ------------------------------------------------------

#: tuned mixing weights lam[(i, j)] for the 49 case pairs.
TUNED_LAMBDA = {}
_LAMBDA_ROWS = [
    ("0.5", "0.5", "0.54", "0.55", "0.565", "0.565", "0.6"),
    ("0.5", "0.5", "0.53", "0.55", "0.565", "0.565", "0.6"),
    ("0.5", "0.5", "0.53", "0.55", "0.565", "0.565", "0.6"),
    ("0.5", "0.5", "0.535", "0.55", "0.565", "0.565", "0.6"),
    ("0.5", "0.5", "0.535", "0.55", "0.565", "0.565", "0.6"),
    ("0.5", "0.5", "0.53", "0.55", "0.565", "0.565", "0.6"),
    ("0.5", "0.515", "0.535", "0.555", "0.565", "0.57", "0.6"),
]
for _i, _row in enumerate(_LAMBDA_ROWS, start=1):
    for _j, _lam in enumerate(_row, start=1):
        TUNED_LAMBDA[(_i, _j)] = parse_rational(_lam)


PairEntry = namedtuple("PairEntry", ["i", "j", "lam", "pf", "pg", "product",
                                     "pf_pattern", "pg_pattern"])


class RatioCertificate(namedtuple("RatioCertificate", [
        "mode",
        "entries",  # (i, j) -> PairEntry
        "retained",  # frozenset({i, j}) -> (orientation (i, j), value)
        "bound",
])):
    """Per-pair products and the overall retained bound.

    For an unordered pair {i, j} the two orientations bound the same
    single-bin weight (swapping the coordinates of every item maps the
    feasible patterns onto themselves), so the smaller product is retained.
    """

    __slots__ = ()


def round6(num: int, den: int) -> int:
    """num/den (den > 0) in millionths, rounded to the nearest integer, ties
    to even.  Every pair of one value rounds alike, in lowest terms or not."""
    q, r = divmod(num * 10 ** 6, den)
    return q + (2 * r > den or 2 * r == den and q % 2)


def quantized_fn(fn: PiecewiseFn, tail_slope: Fraction) -> PiecewiseFn:
    """Interval values rounded to the six-decimal data grid, as integers over
    10**6, and the tail slope set to ``tail_slope``."""
    return PiecewiseFn(nums=(None, *(round6(n, fn.den) for n in fn.nums[1:])),
                       den=10 ** 6, tail_slope=tail_slope)


def quantized_model(model: PatternModel) -> PatternModel:
    """Sizes rounded to the six-decimal data grid (reference data files)."""
    return PatternModel(sizes=(None, *(Fraction(round6(s.numerator, s.denominator), 10 ** 6)
                                       for s in model.sizes[1:])),
                        caps=model.caps, constraints=model.constraints,
                        capacity=model.capacity)


def ratio_certificate(wset: WeightFunctionSet, lam_table: dict | None = None,
                      mode: str = "paper-compat") -> RatioCertificate:
    """Compute P(f) * P(g) for every case pair and the retained overall bound.
    Paper-compat's changes live here alone: six-decimal sizes and f and g
    values, and every tail slope pinned to the common value 1/(1-eps)."""
    if mode not in ("paper-compat", "exact"):
        raise ValueError(f"unknown mode {mode!r}")
    compat, pin = mode == "paper-compat", wset.tail_slope
    lam_table = TUNED_LAMBDA if lam_table is None else lam_table
    model = shplus_pattern_model(wset.table)
    if compat:
        model = quantized_model(model)
    ncases = wset.num_cases
    entries = {}
    per_f = {}  # (i, lam) -> (ratio hull of f, P(f), its argmax): f does not depend on j
    for i in range(1, ncases + 1):
        for j in range(1, ncases + 1):
            if (i, j) not in lam_table:
                raise ValueError(f"pair {i},{j}: the lambda table has no entry")
            try:
                lam = parse_rational(lam_table[(i, j)])
                if (i, lam) not in per_f:
                    f = build_f(i, lam, wset)
                    per_f[(i, lam)] = (ratio_hull(i, f, wset), *pattern_max(
                        quantized_fn(f, pin) if compat else f, model))
            except ValueError as exc:  # a malformed lam, or one making f vanish
                raise ValueError(f"pair {i},{j}: {exc}") from None
            hull, pf, pf_pat = per_f[(i, lam)]
            g = build_g(j, hull, wset)
            pg, pg_pat = pattern_max(quantized_fn(g, pin) if compat else g, model)
            entries[(i, j)] = PairEntry(i=i, j=j, lam=lam, pf=pf, pg=pg,
                                        product=pf * pg,
                                        pf_pattern=pf_pat, pg_pattern=pg_pat)
    retained = {}
    for i in range(1, ncases + 1):
        for j in range(i, ncases + 1):
            a = entries[(i, j)]
            b = entries[(j, i)]
            pick = a if a.product <= b.product else b
            retained[frozenset((i, j))] = ((pick.i, pick.j), pick.product)
    bound = max(v for _, v in retained.values())
    return RatioCertificate(mode=mode, entries=entries, retained=retained,
                            bound=bound)
