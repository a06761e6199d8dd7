"""2D online bin packing by slicing: Harmonic on one axis, Super-Harmonic on
the other, and the fair-coin average of the two orientations.

A rectangle is first rounded up in its width coordinate to a slice class,
one integer c: a width above eps is class c = i and rounds to the breakpoint
t[i] of its type i, and a width at or below eps is class c = k+1+m and rounds
to the step eps*(1-d)^m of a geometric grid, for a small d > 0.  Items of one
class are stacked into slices (width = class value, height 1) by a per-class
Harmonic packer over the height coordinate.  A class that needs a fresh slice
reads its value, and one 1D Super-Harmonic run, common to all classes, places
the slice in a real bin as an item of that size and of type min(c, k+1).

Geometry inside a bin: blue slices of the bin's 1D type i sit side by side
from the left edge (offsets 0, t[i], 2 t[i], ...), red slices fill the
reserved space from the right edge leftwards, and Next-Fit bins pack tiny
slices left to right.  Blue loads stop at beta*t <= 1 - Delta[phi] and red
loads at gamma*t <= Delta[phi], so slices never overlap; items never
overlap inside a slice because their heights are stacked.  The slices are
the only record of this geometry: a rectangle sits at its slice's x and on
the heights below it, and the audit checks these columns, not rectangle
pairs.  It is all integers: a rectangle is the tuple (wp, wq, hp, hq) of its
sides as read, a slice's x and width share a denominator, its stacked height
(like the audit's sum) has the lcm of the heights', the audit
cross-multiplies, and the weight totals build one Fraction per width type.

The geometric grid is an exact integer ladder: value(m) is an 18-digit
integer over a power of ten, one step per factor (1-d) truncated to 18
significant digits (the exact power's digits grow linearly with m).  It
stores the numerators, each below 10^18 < 2^63, in an int64 array at 8
bytes a step, and, once per power of ten, the index where that power's run
of steps starts.  It grows by blocks of at most 1024 steps: one list
comprehension computes a block, cut at its first step below 10^17, and
array.fromlist appends it in one copy.  The drift after m steps is below
m * 1e-17; classes are found by bisection on exact integer comparisons, so
slices always cover their items.  The ladder stops at 10^6 steps, about
8 MB, which reaches widths of about 1e-45 at the default d.  Every run at
one (eps, d) reads one ladder from a module dict, which keeps it for the
life of the process.

The two-orientation average satisfies the slice analysis bound

    avg_cost <= (maxW(width-first run) + maxW(height-first run)) / (2 (1-d)) + C

where maxW is the largest, over the 1D weighting cases, of
sum_items W_H(stacked coordinate) * W_case(slice class of the other
coordinate), which a run sums slice by slice; the test-suite pins C = 300.
"""

from __future__ import annotations

import bisect
from array import array
from collections import namedtuple
from fractions import Fraction
from math import lcm
from operator import itemgetter, neg

from .generators import Item2D  # re-exported: a rectangle from two rationals
from .harmonic import harmonic_type, height_index, w_h
from .params import ParamTable, decimal_digits, exact_add, named
from .superharmonic import Bin, ShState
from .weighting import WeightFunctionSet

_LOW = 10 ** 17  # ladder numerators have 18 digits: _LOW <= num < 10 * _LOW
_MAX_DEPTH = 10 ** 6  # the deepest ladder step
_BLOCK = 1024  # the most ladder steps grown at once
DEFAULT_DELTA = Fraction(1, 10000)
_LADDERS: dict = {}  # (eps, d) -> the TinyGrid of every TensorRun at those values


class TinyGrid:
    """The geometric width grid below eps: value(m) ~ eps * (1-d)^m, with
    value(0) = eps and value(m) = num[m] / 10**(e1 + j) on the j-th run of
    steps that share a power of ten, grown on demand."""

    def __init__(self, eps: Fraction, delta: Fraction):
        if not 0 < delta < Fraction(1, 2):
            raise ValueError("grid parameter must lie in (0, 1/2)")
        self.eps = eps
        self._a, self._b = (1 - delta).as_integer_ratio()
        p, r = (eps * (1 - delta)).as_integer_ratio()
        e = 17 + len(str(r)) - len(str(p))  # p * 10**e / r lies in (10^16, 10^18)
        e += p * 10 ** e // r < _LOW
        self._num = array("q", (0, p * 10 ** e // r))  # 0 holds a place: value(0) is eps
        # a step loses at most one digit (1-d > 1/2), so the exponents run
        # e1, e1+1, ... and _starts[j] is the first index at exponent e1 + j
        self._e1, self._starts = e, [1]
        # 10**-floor <= value(_MAX_DEPTH): each step keeps more than a factor
        # (1-d)(1-10^-17); with u = d/(2-d), -ln(1-d) = 2 sum u^k/k over odd k is
        # at most five terms plus the geometric tail 2u^11/(11(1-u^2)); -ln(1-10^-17)
        # <= 1/(10^17-1); 1/ln 10 < 0.4343; eps = en/ed > 10**(len(en)-1-len(ed))
        u = Fraction(self._b - self._a, self._b + self._a)
        x = (2 * sum(u ** k / k for k in range(1, 11, 2))
             + 2 * u ** 11 / (11 * (1 - u * u)) + Fraction(1, 10 ** 17 - 1))
        en, ed = eps.as_integer_ratio()
        self._floor = (-(-_MAX_DEPTH * x * Fraction(4343, 10000) // 1)
                       + len(str(ed)) + 1 - len(str(en)))

    def _grow(self, m: int) -> None:
        """Extend the ladder to index m, a block of steps at a time: a block
        is cut at its first step below _LOW, which is taken one digit deeper.
        A block holds at most _BLOCK steps, and at most one step more than the
        last whole run at one exponent, where that step is due: on a coarse
        grid a run is three or four steps, and few steps are computed twice."""
        num, starts, a, b = self._num, self._starts, self._a, self._b
        while len(num) <= m:
            run = starts[-1] - starts[-2] + 1 if len(starts) > 1 else _BLOCK
            size = min(m + 1 - len(num), _BLOCK, run)
            n = num[-1]
            block = [n := n * a // b for _ in range(size)]
            # the block falls, so its negation rises: bisect to its first step below _LOW
            cut = bisect.bisect_right(block, -_LOW, key=neg)
            num.fromlist(block[:cut])
            if cut < size:  # one digit deeper
                starts.append(len(num))
                num.append(num[-1] * a * 10 // b)

    def _start(self, e: int) -> int:
        """The first index at exponent e or deeper, len(num) past the ladder."""
        j = e - self._e1
        return 1 if j <= 0 else self._starts[j] if j < len(self._starts) else len(self._num)

    def value(self, m: int) -> tuple:
        """value(m) as an integer pair, (num[m], 10**exp) below eps."""
        if m == 0:
            return self.eps.as_integer_ratio()
        self._grow(m)
        return self._num[m], 10 ** (self._e1 + bisect.bisect_right(self._starts, m) - 1)

    def class_of(self, p: int, q: int, side: str = "width") -> int:
        """The unique m with value(m+1) < w <= value(m) for w = p/q (q > 0, not
        necessarily in lowest terms); errors call w ``side``."""
        en, ed = self.eps.as_integer_ratio()
        if not (0 < p and p * ed <= en * q):
            raise ValueError(f"{named(p, q, side)} outside the tiny range (0, {self.eps}]")
        num = self._num
        # 10**(15-top) < w < 10**(17-top) and 10**(17-e) <= value(m) < 10**(18-e)
        # at exponent e: value(m) > w for e <= top and value(m) < w for
        # e >= top+3, so only at the exponents top+1 and top+2 does the exact
        # product decide
        dn, dd = decimal_digits(p), decimal_digits(q)
        top = 16 - dn + dd
        while ((e := self._e1 + len(self._starts) - 1) < top + 3
               and (e <= top or num[-1] * q >= p * 10 ** e)):
            # past the floor, w < 10**(dn-dd+1) <= 10**-floor <= value(_MAX_DEPTH)
            if len(num) > _MAX_DEPTH or dd - dn > self._floor:
                raise ValueError(f"{named(p, q, side, (dn, dd))} lies below the tiny "
                                 f"grid's depth floor of {_MAX_DEPTH} classes")
            self._grow(min(len(num) + _BLOCK - 1, _MAX_DEPTH))
        # num falls along the steps at one exponent e, and value(m) < w there
        # exactly when -num[m] > floor(-p * 10**e / q): bisect each run in C.
        # Past both runs lies a step at exp >= top+3, below w
        lo = self._start(top + 1)
        for e in (top + 1, top + 2):
            hi = self._start(e + 1)
            m = bisect.bisect_right(num, p * 10 ** e // -q, lo, hi, key=neg)
            if m < hi:
                return m - 1
            lo = hi
        return lo - 1


class Slice:
    """Slice ``sid`` of bin ``bin_id``: the column [x, x + width] x [0, 1] with
    x = x_num / den and the width, the class value, w_num / den.  It stacks
    the rectangle tuples ``items``, bottom to top, of heights summing to
    fill_num / fill_den; ``width_type`` is the table type of the widths, k+1
    for the tiny grid, and ``height_type`` their Harmonic type."""

    __slots__ = ("sid", "bin_id", "x_num", "w_num", "den", "width_type", "height_type",
                 "fill_num", "fill_den", "items")

    def __init__(self, sid: int, bin_id: int, x_num: int, w_num: int, den: int,
                 width_type: int, height_type: int, fill_num: int, fill_den: int,
                 items: list):
        self.sid, self.bin_id = sid, bin_id
        self.x_num, self.w_num, self.den = x_num, w_num, den
        self.width_type, self.height_type = width_type, height_type
        self.fill_num, self.fill_den, self.items = fill_num, fill_den, items

    def __eq__(self, other):
        return (isinstance(other, Slice)
                and all(getattr(self, a) == getattr(other, a) for a in self.__slots__))


class TensorRun:
    """One orientation of the slice packer over a common 1D run: "hxb" cuts
    slices by width and stacks heights with Harmonic index 1/eps; "bxh" is the
    transpose: it turns each rectangle it is given, and its slices hold the
    turned tuples.  The weight totals and the geometry are read from the
    slices, each holding one width class and one height type."""

    def __init__(self, table: ParamTable, orientation: str = "hxb",
                 delta: Fraction = DEFAULT_DELTA):
        if orientation not in ("hxb", "bxh"):
            raise ValueError(f"unknown orientation {orientation!r}")
        self.hk = height_index(table.eps)
        self.table = table
        self.orientation = orientation
        self.inner = ShState(table)
        key = (table.eps, Fraction(delta))
        self.grid = _LADDERS.get(key) or _LADDERS.setdefault(key, TinyGrid(*key))
        self._t = [None, *(t.as_integer_ratio() for t in table.t[1:table.k + 1])]
        self._side = "height" if orientation == "bxh" else "width"
        self.slices: list = []
        self._open: dict = {}  # class id * (hk+1) + height type -> Slice

    @property
    def cost(self) -> int:
        return self.inner.cost

    def _class_id(self, p: int, q: int) -> int:
        """The width class of p/q: its type i <= k, or k+1+m at ladder step m."""
        i = self.table.classify(p, q)
        return i if i <= self.table.k else i + self.grid.class_of(p, q, self._side)

    def _class_value(self, c: int) -> tuple:
        """The value of width class c as an integer pair."""
        return self._t[c] if c <= self.table.k else self.grid.value(c - self.table.k - 1)

    def width_class(self, p: int, q: int):
        """(class id, class value as an integer pair) of the width p/q."""
        c = self._class_id(p, q)
        return c, self._class_value(c)

    def _slice_x(self, b: Bin, width_type: int, wn: int, wd: int) -> tuple:
        """(x_num, w_num, den) of a new slice of width wn/wd in ``b`` from b's
        sums, which hold it (so den is a multiple of wd): blue and tiny slices run
        left to right, x = blue sum - width; reds run leftwards, x = 1 - red sum."""
        # a slice of b's blue type is blue: in a valid table gamma_i*t_i >= t_i >
        # delta_i >= Delta[phi(i)] keeps type-i reds out (a red slice placed as
        # blue would lie over a blue one or left of 0: validate_geometry reports it)
        if width_type > self.table.k or b.blue_type == width_type:
            f = b.blue_den // wd
            return b.blue_num - wn * f, wn * f, b.blue_den
        f = b.red_den // wd
        return b.red_den - b.red_num, wn * f, b.red_den

    def insert(self, item: tuple) -> Slice:
        """Stack the rectangle ``item``, (wp, wq, hp, hq), turned in a "bxh" run
        to (hp, hq, wp, wq), on its slice; return the slice.  Only a slice that
        opens reads its class value and tells SH+ its type."""
        if self.orientation == "bxh":
            item = (item[2], item[3], item[0], item[1])
        wn, wd, hn, hd = item
        c = self._class_id(wn, wd)
        hk = self.hk
        ht = harmonic_type(hn, hd, hk)
        slot = c * (hk + 1) + ht
        sl = self._open.get(slot)
        # full when the item would stack above 1: n heights of type ht < hk sum
        # to more than n/(ht+1) and at most n/ht, so that is after ht items
        if sl is None or sl.fill_num * hd + hn * sl.fill_den > sl.fill_den * hd:
            vn, vd = self._class_value(c)
            width_type = min(c, self.table.k + 1)
            b = self.inner.insert(vn, vd, width_type)
            sl = Slice(len(self.slices), b.bid, *self._slice_x(b, width_type, vn, vd),
                       width_type, ht, hn, hd, [item])  # its stack: the item alone
            self.slices.append(sl)
            self._open[slot] = sl
            return sl
        sl.items.append(item)
        num, den = sl.fill_num, sl.fill_den  # exact_add, in line
        if den % hd:
            m = lcm(den, hd)
            num, den = num * (m // den), m
        sl.fill_num, sl.fill_den = num + hn * (den // hd), den
        return sl

    def weight_bounds(self, wset: WeightFunctionSet) -> list:
        """Per-case totals of W_H(height) * W_case(width class); 1-based.  A slice
        weighs count/i for height type i < hk, else hk/(hk-1) * fill, times its
        class value if tiny, summed on integers per width type and denominator."""
        k, hk = self.table.k, self.hk
        sums = [{} for _ in range(k + 2)]  # width type -> {denominator: numerator}
        for sl in self.slices:
            n, d = (sl.w_num, sl.den) if sl.width_type > k else (1, 1)
            if sl.height_type < hk:
                n, d = n * len(sl.items), d * sl.height_type
            else:
                n, d = n * hk * sl.fill_num, d * (hk - 1) * sl.fill_den
            acc = sums[sl.width_type]
            acc[d] = acc.get(d, 0) + n
        per_type = [Fraction(sum(n * (den // d) for d, n in acc.items()), den)
                    for acc in sums for den in (lcm(*acc),)]
        return wset.case_totals(per_type, per_type[k + 1])

    def max_weight_bound(self, wset: WeightFunctionSet) -> Fraction:
        return max(self.weight_bounds(wset)[1:])


def w2d(case_i: int, case_j: int, x: Fraction, y: Fraction,
        wset: WeightFunctionSet) -> Fraction:
    """Combined per-rectangle weight of the two orientations, (W_H(x) W^i(y) +
    W^j(x) W_H(y)) / 2 with W_H at Harmonic index 1/eps.  Symmetric under
    (i, j, x, y) -> (j, i, y, x)."""
    hk = height_index(wset.table.eps)
    return (w_h(x, hk) * wset.w(y, case_i) + wset.w(x, case_j) * w_h(y, hk)) / 2


TensorCost = namedtuple("TensorCost", ["cost_hxb", "cost_bxh", "avg"])


def tensor_cost(items, table: ParamTable, delta: Fraction = DEFAULT_DELTA):
    """Run both orientations and average them (the fair-coin expectation).
    ``items`` is read once, so it may be an iterator."""
    hxb, bxh = TensorRun(table, "hxb", delta), TensorRun(table, "bxh", delta)
    for it in items:
        hxb.insert(it)
        bxh.insert(it)
    return TensorCost(hxb.cost, bxh.cost, Fraction(hxb.cost + bxh.cost, 2)), hxb, bxh


def validate_geometry(run: TensorRun) -> list:
    """Exact geometric audit of a finished run, read from its slices, in integers.

    A slice is the column [x, x+width] x [0, 1] of its bin and stacks its
    rectangles from the bottom.  They lie inside the unit bin and apart from
    every other rectangle if four checks pass: the column lies in [0, 1]
    across; no rectangle is wider than the column; the stack, re-summed from
    the rectangles, ends at height 1 or below; and in a bin, sorted by x over
    the lcm of its denominators, no column starts left of the previous one's
    right edge (touching edges pass).  Overlapping rectangles of two slices
    lie in overlapping columns, so this is never looser than a check on
    rectangle pairs, and stricter where columns overlap but their rectangles
    miss.  Returns violation strings naming slices and rectangles.
    """
    bad, per_bin = [], {}
    for sl in run.slices:
        x, w, den = sl.x_num, sl.w_num, sl.den
        if not (0 <= x and x + w <= den):
            bad.append(f"slice {sl.sid}: column outside the unit bin")
        num, fden = 0, 1  # the stack's height is num/fden
        for pos, (wp, wq, hp, hq) in enumerate(sl.items):
            if wp * den > w * wq:
                bad.append(f"slice {sl.sid} item {pos}: exceeds the slice span")
            num, fden = exact_add(num, fden, hp, hq)
        if num > fden:
            bad.append(f"slice {sl.sid}: stack outside the unit bin")
        per_bin.setdefault(sl.bin_id, []).append(sl)
    for bin_id, slices in per_bin.items():
        if len(slices) == 1:
            continue
        common = lcm(*(sl.den for sl in slices))
        cols = sorted(((sl.x_num * (common // sl.den), sl.w_num * (common // sl.den),
                        sl.sid) for sl in slices), key=itemgetter(0))
        for (left_x, left_w, left), (right_x, _, right) in zip(cols, cols[1:]):
            if right_x < left_x + left_w:
                bad.append(f"bin {bin_id}: slice {left} and slice {right} overlap")
    return bad
