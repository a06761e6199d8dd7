"""2D online bin packing by slicing: Harmonic on one axis, Super-Harmonic on
the other, and the fair-coin average of the two orientations.

A rectangle is first rounded up in its width coordinate to a slice class:
widths above eps round to the type breakpoint t[i] of their interval, and
widths at or below eps round to a geometric grid eps*(1-d)^m for a small
d > 0.  Items of one class are stacked on top of each other into slices
(width = class value, height 1) by a per-class Harmonic packer over the
height coordinate; whenever a class needs a fresh slice, the slice is
allocated inside a real bin by one 1D Super-Harmonic run, common to all
classes, that treats the slice as an item of size equal to the class value.

Geometry inside a bin: blue slices of the bin's 1D type i sit side by side
from the left edge (offsets 0, t[i], 2 t[i], ...), red slices fill the
reserved space from the right edge leftwards, and Next-Fit bins pack tiny
slices left to right.  Blue loads stop at beta*t <= 1 - Delta[phi] and red
loads at gamma*t <= Delta[phi], so slices never overlap; items never
overlap inside a slice because their heights are stacked.  The slices are
the only record of this geometry: a slice keeps its rectangles bottom to
top, so a rectangle sits at the slice's x and at the sum of the heights
below it.  The geometry audit therefore checks columns, not rectangle
pairs: each slice is the column [x, x+width] x [0, 1] of its bin, so its
rectangles are inside the unit bin and apart from all others if the column
lies in [0, 1], no rectangle is wider than it, its stack sums to at most 1,
and the bin's columns, sorted by x, do not overlap.

The geometric grid is an exact integer ladder: value(m) is an 18-digit
integer over a power of ten, one step per factor (1-d) truncated to 18
significant digits (the exact power's digits grow linearly with m).  The
drift after m steps is below m * 1e-17; classes are found by bisection on
exact integer comparisons, so slices always cover their items.  The ladder
stops at 10^6 steps, which reaches widths of about 1e-45 at the default d.

The two-orientation average satisfies the slice analysis bound

    avg_cost <= (maxW(width-first run) + maxW(height-first run)) / (2 (1-d)) + C

where maxW is the largest, over the 1D weighting cases, of
sum_items W_H(stacked coordinate) * W_case(slice class of the other
coordinate), which a run sums slice by slice; the test-suite pins C = 300.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from fractions import Fraction

from .generators import Item2D
from .harmonic import harmonic_type, harmonic_weight, w_h
from .params import ParamTable
from .superharmonic import Bin, ShState
from .weighting import WeightFunctionSet

_LOW = 10 ** 17  # ladder numerators have 18 digits: _LOW <= num < 10 * _LOW
_MAX_DEPTH = 10 ** 6  # the deepest ladder step
DEFAULT_DELTA = Fraction(1, 10000)


def _digits(n: int) -> int:
    """Decimal digits of n >= 1, counted up from a lower bound read from its
    bit length (0.30102999566 < log10(2))."""
    d = (n.bit_length() - 1) * 30102999566 // 10 ** 11 + 1
    while n >= 10 ** d:
        d += 1
    return d


def _named(w: Fraction, digits=None) -> str:
    """``width w``; by digit counts where str() refuses so long an integer.
    ``digits`` are the numerator's and denominator's counts when known."""
    try:
        return f"width {w}"
    except ValueError:  # beyond sys.get_int_max_str_digits()
        dn, dd = digits or (_digits(abs(w.numerator)), _digits(w.denominator))
        return f"width with a {dn}-digit numerator and a {dd}-digit denominator"


class TinyGrid:
    """The geometric width grid below eps: value(m) ~ eps * (1-d)^m, with
    value(0) = eps and value(m) = num[m] / 10**exp[m], grown on demand."""

    def __init__(self, eps: Fraction, delta: Fraction):
        if not 0 < delta < Fraction(1, 2):
            raise ValueError("grid parameter must lie in (0, 1/2)")
        self.eps = eps
        self._a, self._b = (1 - delta).as_integer_ratio()
        p, r = (eps * (1 - delta)).as_integer_ratio()
        e = 17 + len(str(r)) - len(str(p))  # p * 10**e / r lies in (10^16, 10^18)
        e += p * 10 ** e // r < _LOW
        self._num, self._exp = [None, p * 10 ** e // r], [None, e]  # index 0 is eps

    def _grow(self, m: int) -> None:
        """Extend the ladder to index m."""
        num, exp, a, b = self._num, self._exp, self._a, self._b
        n, e = num[-1], exp[-1]
        for _ in range(len(num), m + 1):
            q = n * a // b
            if q < _LOW:  # one digit deeper
                q, e = n * a * 10 // b, e + 1
            n = q
            num.append(n)
            exp.append(e)

    def value(self, m: int) -> Fraction:
        if m == 0:
            return self.eps
        self._grow(m)
        return Fraction(self._num[m], 10 ** self._exp[m])

    def class_of(self, w: Fraction) -> int:
        """The unique m with value(m+1) < w <= value(m)."""
        if not 0 < w <= self.eps:
            raise ValueError(f"{_named(w)} outside the tiny range (0, {self.eps}]")
        num, exp, wn, wd = self._num, self._exp, w.numerator, w.denominator
        # 10**(15-top) < w < 10**(17-top) and 10**(17-e) <= value(m) < 10**(18-e)
        # with e = exp[m]: only for top < e < top+3 does the exact product decide
        dn, dd = _digits(wn), _digits(wd)
        top = 16 - dn + dd
        while exp[-1] < top + 3 and (exp[-1] <= top
                                     or num[-1] * wd >= wn * 10 ** exp[-1]):
            if len(num) > _MAX_DEPTH:
                raise ValueError(f"{_named(w, (dn, dd))} lies below the tiny grid's "
                                 f"depth floor of {_MAX_DEPTH} classes")
            self._grow(min(len(num) + 1023, _MAX_DEPTH))  # blocks of 1024 steps
        return bisect.bisect_left(range(len(num)), True, lo=1,
                                  key=lambda m: num[m] * wd < wn * 10 ** exp[m]) - 1


@dataclass
class Slice:
    sid: int
    width: Fraction  # class value
    bin_id: int
    x: Fraction
    width_type: int  # table type of the widths, k+1 for the tiny grid
    height_type: int  # Harmonic type of the heights stacked here
    y_fill: Fraction = Fraction(0)
    items: list = field(default_factory=list)  # Item2D, bottom to top

    @property
    def count(self) -> int:
        return len(self.items)


class TensorRun:
    """One orientation of the slice packer over a common 1D run.

    ``orientation`` is "hxb" (slices cut by width, heights stacked) or
    "bxh" (the transpose; callers feed transposed items and read the
    geometry transposed).  Heights are stacked with Harmonic index
    1/eps (38 for the built-in table).  The weight totals and the
    geometry are read from the slices, each of which holds one width class
    and one height type.
    """

    def __init__(self, table: ParamTable, orientation: str = "hxb",
                 delta: Fraction = DEFAULT_DELTA):
        if orientation not in ("hxb", "bxh"):
            raise ValueError(f"unknown orientation {orientation!r}")
        hk = Fraction(1) / table.eps
        if hk.denominator != 1:
            raise ValueError("1/eps must be an integer for height stacking")
        self.table = table
        self.orientation = orientation
        self.hk = int(hk)
        self.inner = ShState(table)
        self.grid = TinyGrid(table.eps, Fraction(delta))
        self.slices: list = []
        self._open: dict = {}  # (class key, height type) -> Slice

    @property
    def cost(self) -> int:
        return self.inner.cost

    # width -> (class key, class value)
    def width_class(self, w: Fraction):
        i = self.table.classify(w)
        if i <= self.table.k:
            return ("t", i), self.table.t[i]
        m = self.grid.class_of(w)
        return ("e", m), self.grid.value(m)

    def _slice_x(self, b: Bin, width_type: int, width: Fraction) -> Fraction:
        # a slice of b's blue type is blue: in a valid table gamma_i*t_i >= t_i >
        # delta_i >= Delta[phi(i)] keeps type-i reds out (check_feasibility audits it)
        if width_type > self.table.k:
            return b.blue_sum - width  # tiny: Next Fit, left to right
        if b.blue_type == width_type:
            return (b.blue_count - 1) * width
        return 1 - b.red_sum

    def insert(self, item: Item2D) -> Slice:
        """Stack ``item`` on its slice and return that slice."""
        key, width = self.width_class(item.w)
        ht = harmonic_type(item.h, self.hk)
        slot = (key, ht)
        sl = self._open.get(slot)
        if sl is None or (sl.count >= ht if ht < self.hk else sl.y_fill + item.h > 1):
            b = self.inner.insert(width)
            width_type = key[1] if key[0] == "t" else self.table.k + 1
            sl = Slice(sid=len(self.slices), width=width, bin_id=b.bid,
                       x=self._slice_x(b, width_type, width),
                       width_type=width_type, height_type=ht)
            self.slices.append(sl)
            self._open[slot] = sl
        sl.items.append(item)
        sl.y_fill += item.h
        return sl

    def pack(self, items) -> "TensorRun":
        for it in items:
            self.insert(it)
        return self

    def weight_bounds(self, wset: WeightFunctionSet) -> list:
        """Per-case totals of W_H(height) * W_case(width class); 1-based."""
        k = self.table.k
        per_type = [Fraction(0)] * (k + 2)  # k+1: tiny, weighted by class value
        for sl in self.slices:
            hw = harmonic_weight(sl.height_type, sl.count, sl.y_fill, self.hk)
            per_type[sl.width_type] += hw if sl.width_type <= k else sl.width * hw
        return wset.case_totals(per_type, per_type[k + 1])

    def max_weight_bound(self, wset: WeightFunctionSet) -> Fraction:
        return max(self.weight_bounds(wset)[1:])


def w2d(case_i: int, case_j: int, x: Fraction, y: Fraction,
        wset: WeightFunctionSet) -> Fraction:
    """Combined per-rectangle weight of the two orientations.

    (W_H(x) * W^i(y) + W^j(x) * W_H(y)) / 2, with the height weighting at
    harmonic index 1/eps.  Symmetric under (i, j, x, y) -> (j, i, y, x).
    """
    hk = int(Fraction(1) / wset.table.eps)
    return (w_h(x, hk) * wset.w(y, case_i) + wset.w(x, case_j) * w_h(y, hk)) / 2


@dataclass
class TensorCost:
    cost_hxb: int
    cost_bxh: int
    avg: Fraction


def tensor_cost(items, table: ParamTable, delta: Fraction = DEFAULT_DELTA):
    """Run both orientations and average them (the fair-coin expectation)."""
    hxb = TensorRun(table, "hxb", delta).pack(items)
    bxh = TensorRun(table, "bxh", delta).pack([it.transposed for it in items])
    return TensorCost(cost_hxb=hxb.cost, cost_bxh=bxh.cost,
                      avg=Fraction(hxb.cost + bxh.cost, 2)), hxb, bxh


def validate_geometry(run: TensorRun) -> list:
    """Exact geometric audit of a finished run, read from its slices.

    A slice is the column [x, x+width] x [0, 1] of its bin and stacks its
    rectangles from the bottom.  Its rectangles lie inside the unit bin and
    apart from every other rectangle if four checks pass: the column lies in
    [0, 1] across; no rectangle is wider than the column; the stack, summed
    from the rectangles and not read from y_fill, ends at height 1 or below;
    and within a bin, sorted by x, no column starts left of the previous
    one's right edge (touching edges pass).  Two rectangles of different
    slices that overlap lie in overlapping columns, so this audit is never
    looser than a check on rectangle pairs; it also rejects overlapping
    columns whose rectangles happen to miss, a layout the packer never
    builds.  Returns violation strings naming slices (and a rectangle by
    position); empty means the packing is geometrically consistent.
    """
    bad = []
    per_bin: dict = {}
    for sl in run.slices:
        if not (0 <= sl.x and sl.x + sl.width <= 1):
            bad.append(f"slice {sl.sid}: column outside the unit bin")
        y = Fraction(0)
        for pos, it in enumerate(sl.items):
            if it.w > sl.width:
                bad.append(f"slice {sl.sid} item {pos}: exceeds the slice span")
            y += it.h
        if y > 1:
            bad.append(f"slice {sl.sid}: stack outside the unit bin")
        per_bin.setdefault(sl.bin_id, []).append(sl)
    for bin_id, slices in per_bin.items():
        slices.sort(key=lambda sl: sl.x)
        for left, right in zip(slices, slices[1:]):
            if right.x < left.x + left.width:
                bad.append(f"bin {bin_id}: slice {left.sid} and "
                           f"slice {right.sid} overlap")
    return bad
