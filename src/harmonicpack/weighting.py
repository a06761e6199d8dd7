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

Items of the tail type k+1 are charged ``x / (1 - eps)`` under every case.

``bound_check`` evaluates all case totals on a finished packing run and
reports the slack of the cost bound; the additive constant asserted by the
test-suite is ``2k + K + 2`` (one bin open for blue and one for red per type,
the Next-Fit bin, and rounding).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .params import ParamTable

#: explicit additive constant standing in for "O(1)" in the cost bound,
#: for the built-in table: 2*50 + 6 + 2.
def slack_allowance(table: ParamTable) -> int:
    return 2 * table.k + table.K + 2


class WeightFunctionSet:
    """The K+1 weighting functions of a table, evaluated per type interval.

    ``values[c][i]`` is the weight a type-i item receives under case c
    (both indices 1-based; index 0 is padding).  Immutable once built.
    """

    def __init__(self, table: ParamTable):
        self.table = table
        k, K = table.k, table.K
        values = [None] * (K + 2)
        for case in range(1, K + 2):
            row = [None] * (k + 1)
            for i in range(1, k + 1):
                row[i] = self._weight_for(table, case, i)
            values[case] = tuple(row)
        self.values = tuple(values)
        self.num_cases = K + 1
        self.tail_slope = Fraction(1) / (1 - table.eps)

    @staticmethod
    def _weight_for(table: ParamTable, case: int, i: int) -> Fraction:
        a, b, g = table.alpha[i], table.beta[i], table.gamma[i]
        blue = (1 - a) / b
        red = a / g if g > 0 else Fraction(0)
        if case == 1:
            return blue
        j = table.K + 2 - case
        part = Fraction(1, 2) if j >= 2 else Fraction(0)  # of a share not in full
        return ((blue if table.phi[i] < j else blue * part)
                + (red if table.varphi[i] >= j else red * part))

    def w(self, size: Fraction, case: int) -> Fraction:
        """Weight of an item of ``size`` under ``case`` (w_sh)."""
        if not 1 <= case <= self.num_cases:
            raise ValueError(f"case {case} outside 1..{self.num_cases}")
        i = self.table.classify(size)
        if i == self.table.k + 1:
            return size * self.tail_slope
        return self.values[case][i]

    def case_totals(self, type_counts, tail_mass: Fraction) -> list:
        """Total charge per case for an item multiset given as type counts.

        ``type_counts[i]`` is the number of type-i items, or any other
        per-type multiplier such as a summed height weight (1-based, length
        k+1 used); ``tail_mass`` is the summed size of tail-type items.
        Returns a 1-based list of K+1 Fractions.
        """
        k = self.table.k
        tail = tail_mass * self.tail_slope
        totals = [None]
        for case in range(1, self.num_cases + 1):
            row = self.values[case]
            s = sum((type_counts[i] * row[i] for i in range(1, k + 1) if type_counts[i]),
                    Fraction(0))
            totals.append(s + tail)
        return totals


@dataclass
class BoundReport:
    """Outcome of checking the cost bound on one finished run."""

    cost: int
    case_id: int  # realized final case
    case_totals: list  # 1-based, K+1 entries
    max_total: Fraction
    slack: Fraction  # cost - max_total
    final_case_total: Fraction
    final_case_slack: Fraction  # cost - total of the realized case


def bound_check(state, wset: WeightFunctionSet | None = None) -> BoundReport:
    """Evaluate the cost bound on a finished Super-Harmonic run.

    ``state`` is a finished ShState.  Reports both the max-over-cases form
    and the sharper bound against the realized final case.
    """
    if wset is None:
        wset = WeightFunctionSet(state.table)
    totals = wset.case_totals(state.s, state.small_mass)
    max_total = max(totals[1:]) if len(totals) > 1 else Fraction(0)
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
