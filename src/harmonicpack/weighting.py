"""Case-indexed weighting functions for the Super-Harmonic packer.

A weighting function charges every item a rational weight such that the
packer's bin count is bounded by the maximum total charge plus a constant.
For a table with K reserved spaces there are K+1 weighting functions,
indexed by the state the packing ends in:

  * case 1 -- no indeterminate red bin remains: every red item shares a bin
    with blue items, so a type-i item is charged only its blue share
    ``(1-alpha_i)/beta_i``.
  * case K+2-j for ``2 <= j <= K`` -- some red-only bin remains and the
    smallest red item in such bins fits space ``Delta[j]`` but no smaller
    one.  Blue and red shares are then charged in full or halved depending
    on how ``phi(i)`` and ``varphi(i)`` compare against the threshold j:

        phi < j,  varphi < j :  (1-a)/b + a/(2g)
        phi < j,  varphi >= j:  (1-a)/b + a/g
        phi >= j, varphi >= j:  (1-a)/(2b) + a/g
        phi >= j, varphi < j :  (1-a)/(2b) + a/(2g)

  * case K+1 -- the smallest such red item fits the smallest space
    (threshold j = 1):

        phi = 0, varphi = 0:  (1-a)/b
        phi = 0, varphi > 0:  (1-a)/b + a/g
        phi > 0, varphi = 0:  0
        phi > 0, varphi > 0:  a/g

Whenever ``gamma_i = 0`` the red share ``a/g`` is replaced by zero.  Items of
the tail type k+1 are charged ``x / (1 - eps)`` under every case.

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
        phi, varphi = table.phi[i], table.varphi[i]
        blue = (1 - a) / b
        blue_half = (1 - a) / (2 * b)
        red = a / g if g > 0 else Fraction(0)
        red_half = red / 2
        K = table.K
        if case == 1:
            return blue
        if case == K + 1:  # threshold j = 1
            if phi == 0 and varphi == 0:
                return blue
            if phi == 0 and varphi > 0:
                return blue + red
            if phi > 0 and varphi == 0:
                return Fraction(0)
            return red
        j = K + 2 - case  # 2 <= j <= K
        if phi < j and varphi < j:
            return blue + red_half
        if phi < j and varphi >= j:
            return blue + red
        if phi >= j and varphi >= j:
            return blue_half + red
        return blue_half + red_half

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
    counts = state.type_counts()
    totals = wset.case_totals(counts, state.small_mass)
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
