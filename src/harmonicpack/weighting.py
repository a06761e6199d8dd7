"""Case-indexed weighting functions for the Super-Harmonic packer.

A weighting function charges every item a rational weight such that the
packer's bin count is bounded by the maximum total charge plus a constant.
For a table with K reserved spaces there are K+1 weighting functions,
indexed by the state the packing ends in.  A type-i item has a blue share
``(1-a)/b`` and a red share ``a/g`` (a, b, g = alpha_i, beta_i, gamma_i;
the red share is zero when g = 0), and one rule gives its weight:

  * case 1 -- no red-indeterminate bin remains: every red item shares a bin
    with blue items, so the item is charged its blue share alone.
  * case c >= 2 -- some red-only bin remains, and the smallest red item in
    such bins fits space ``Delta[j]`` but no smaller one, j = K+2-c.  The
    blue share counts in full when ``phi(i) < j`` and the red share when
    ``varphi(i) >= j``.  A share that does not count in full is halved when
    j >= 2 and dropped when j = 1 (case K+1).

Case 1 is the same rule at j = K+1 with every share not in full dropped.
Items of the tail type k+1 are charged ``x / (1 - eps)`` under every case.

No other module turns table parameters into weights.  The shares and the
2D analysis's height weight W_H sit on one integer denominator; case totals
and the ratio certificate work on those integers.

``bound_check`` evaluates all case totals on a finished packing run and
reports the slack of the cost bound; the additive constant asserted by the
test-suite is ``2k + K + 2`` (one bin open for blue and one for red per type,
the Next-Fit bin, and rounding).
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cached_property, cmp_to_key
from operator import mul

from .harmonic import height_index
from .params import ParamTable, on_one_denominator

def slack_allowance(table: ParamTable) -> int:
    """The explicit additive constant 2k + K + 2 standing in for "O(1)" in
    the SH+ cost bound of ``table``: 108 for the built-in table (k = 50,
    K = 6)."""
    return 2 * table.k + table.K + 2


class WeightFunctionSet:
    """The K+1 weighting functions of a table and its height weight W_H, per
    type interval, as integers over one denominator ``den``.

    ``rows[c][i] / den`` is the weight a type-i item receives under case c
    (both indices 1-based; index 0 is padding), and ``values[c][i]`` is that
    weight as a Fraction.  ``height[i] / den`` is W_H on interval i.
    Immutable once built.
    """

    def __init__(self, table: ParamTable):
        self.table = table
        k, K = table.k, table.K
        types = range(1, k + 1)
        # 1/beta and the blue and red shares on one denominator D; den = 2D
        # counts a share in halves: in full (2), halved (1) or not at all (0)
        D, nums = on_one_denominator([
            *(Fraction(1, table.beta[i]) for i in types),
            *((1 - table.alpha[i]) / table.beta[i] for i in types),
            *(table.alpha[i] / table.gamma[i] if table.gamma[i] else Fraction(0)
              for i in types)])
        blue, red = nums[k:2 * k], nums[2 * k:]
        rows = [None]
        for case in range(1, K + 2):
            j = K + 2 - case  # case 1 has j = K+1: blue in full, no red
            part = 1 if 1 < j <= K else 0  # of a share not in full
            rows.append((None, *((2 if table.phi[i] < j else part) * blue[i - 1]
                                 + (2 if table.varphi[i] >= j else part) * red[i - 1]
                                 for i in types)))
        self.den = 2 * D
        self.rows = tuple(rows)
        self.num_cases = K + 1
        self.tail_slope = Fraction(1) / (1 - table.eps)

    @cached_property
    def values(self) -> tuple:
        """The case weights as Fractions: values[c][i] = rows[c][i] / den."""
        return (None, *((None, *(Fraction(w, self.den) for w in row[1:]))
                        for row in self.rows[1:]))

    @cached_property
    def height(self) -> tuple:
        """W_H per type interval, height[m] / den = 1/beta[m].  The 2D bounds
        need an integer Harmonic index 1/eps and no breakpoint 1/r strictly
        inside a type interval, so that W_H is constant on each: checked here."""
        height_index(self.table.eps)
        t, beta = self.table.t, self.table.beta
        for m in range(1, self.table.k + 1):
            if t[m + 1] < Fraction(1, beta[m] + 1):
                raise ValueError(
                    f"height weight not constant on interval {m}: "
                    f"breakpoint 1/{beta[m] + 1} falls inside")
        return (None, *(self.den // beta[m] for m in range(1, self.table.k + 1)))

    @cached_property
    def ratio_ends(self) -> tuple:
        """ratio_ends[c] = :func:`_end_types` of case c, found at the first
        ratio hull the weight set builds, once for every lam."""
        return (None, *(_end_types(self.height, row) for row in self.rows[1:]))

    def w(self, size: Fraction, case: int) -> Fraction:
        """Weight of an item of ``size`` under ``case`` (w_sh)."""
        if not 1 <= case <= self.num_cases:
            raise ValueError(f"case {case} outside 1..{self.num_cases}")
        i = self.table.classify(size.numerator, size.denominator)
        if i == self.table.k + 1:
            return size * self.tail_slope
        return self.values[case][i]

    def case_totals(self, type_counts, tail_mass: Fraction) -> list:
        """Total charge per case for an item multiset given as type counts.

        ``type_counts[i]`` is the number of type-i items, or any other
        per-type multiplier such as a summed height weight (1-based, length
        k+1 used); ``tail_mass`` is the summed size of tail-type items.
        Returns a 1-based list of K+1 Fractions, each summed on integers.
        """
        den, counts = on_one_denominator(type_counts[1:self.table.k + 1])
        den *= self.den
        tail = tail_mass * self.tail_slope
        return [None, *(Fraction(sum(map(mul, counts, row[1:])), den) + tail
                        for row in self.rows[1:])]


def _end_types(height: tuple, row: tuple) -> tuple:
    """(lo, hi): the types n with the least and the greatest H_n / B_n over
    ``height`` and one case ``row`` (both 1-based), the first of ties, and 0
    for the tail, whose ratio is 1, before them.  Ratios are compared by
    cross-multiplication, so a zero B_n counts as +infinity.  Every ratio
    point of a mix of W_H and the case lies on one segment, whose ends these
    are, whatever the mix (see ``boundcert.ratio_hull``)."""
    pairs = [(1, 1), *zip(height[1:], row[1:])]
    ratio = cmp_to_key(lambda a, b: pairs[a][0] * pairs[b][1] - pairs[b][0] * pairs[a][1])
    return min(range(len(pairs)), key=ratio), max(range(len(pairs)), key=ratio)


class BoundReport(namedtuple("BoundReport", [
        "cost",
        "case_id",  # realized final case
        "case_totals",  # 1-based, K+1 entries
        "max_total",
        "slack",  # cost - max_total
        "final_case_total",
        "final_case_slack",  # cost - total of the realized case
])):
    """Outcome of checking the cost bound on one finished run."""

    __slots__ = ()


def bound_check(state, wset: WeightFunctionSet | None = None) -> BoundReport:
    """Evaluate the cost bound on a finished Super-Harmonic run.

    ``state`` is a finished ShState.  Reports both the max-over-cases form
    and the sharper bound against the realized final case.
    """
    if wset is None:
        wset = WeightFunctionSet(state.table)
    totals = wset.case_totals(state.s, state.small_mass)
    max_total = max(totals[1:])
    fc = state.final_case()
    final_total = totals[fc.case_id]
    return BoundReport(
        cost=state.cost,
        case_id=fc.case_id,
        case_totals=totals,
        max_total=max_total,
        slack=state.cost - max_total,
        final_case_total=final_total,
        final_case_slack=state.cost - final_total,
    )
