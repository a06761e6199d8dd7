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
below it.

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


def _named(w: Fraction) -> str:
    """``width w``; by digit counts where str() refuses so long an integer."""
    try:
        return f"width {w}"
    except ValueError:  # beyond sys.get_int_max_str_digits()
        return (f"width with a {_digits(abs(w.numerator))}-digit numerator and a "
                f"{_digits(w.denominator)}-digit denominator")


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
        top = 16 - _digits(wn) + _digits(wd)
        while exp[-1] < top + 3 and (exp[-1] <= top
                                     or num[-1] * wd >= wn * 10 ** exp[-1]):
            if len(num) > _MAX_DEPTH:
                raise ValueError(f"{_named(w)} lies below the tiny grid's depth "
                                 f"floor of {_MAX_DEPTH} classes")
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
    """Exact geometric audit of a finished run.

    Each rectangle sits at its slice's x and at the sum of the heights
    below it in the slice.  Checks every rectangle against the unit bin,
    against its slice span, and pairwise (per bin) for positive-area
    overlap via a sweep over x with the active set kept sorted by the y
    interval.  Returns violation strings naming a rectangle by slice id
    and position; empty means the packing is geometrically consistent.
    """
    bad = []
    per_bin: dict = {}
    for sl in run.slices:
        y = Fraction(0)
        for pos, it in enumerate(sl.items):
            if not (0 <= sl.x and sl.x + it.w <= 1 and y + it.h <= 1):
                bad.append(f"slice {sl.sid} item {pos}: outside the unit bin")
            if it.w > sl.width:
                bad.append(f"slice {sl.sid} item {pos}: exceeds the slice span")
            per_bin.setdefault(sl.bin_id, []).append((sl.x, y, it.w, it.h, sl.sid, pos))
            y += it.h
    for bin_id, rects in per_bin.items():
        bad.extend(_overlaps_in_bin(bin_id, rects))
    return bad


def _overlaps_in_bin(bin_id: int, rects) -> list:
    # rects are (x, y, w, h, slice id, position); sweep over x, closes
    # processed before opens so touching edges pass
    events = []
    for r in rects:
        events.append((r[0], 1, r))
        events.append((r[0] + r[2], 0, r))
    events.sort(key=lambda e: (e[0], e[1]))
    bad = []
    active: list = []  # (y0, y1, slice id, position) of the open rectangles
    for _, kind, (_, y, _, h, sid, pos) in events:
        key = (y, y + h, sid, pos)
        i = bisect.bisect_left(active, key)
        if kind == 0:
            if i < len(active) and active[i] == key:
                active.pop(i)
            continue
        for nb in (i - 1, i):
            if 0 <= nb < len(active):
                oy0, oy1, osid, opos = active[nb]
                if oy0 < y + h and y < oy1:
                    bad.append(f"bin {bin_id}: slice {osid} item {opos} and "
                               f"slice {sid} item {pos} overlap")
        active.insert(i, key)
    return bad
