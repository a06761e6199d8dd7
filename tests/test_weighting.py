import random
from fractions import Fraction

import pytest

from harmonicpack.harmonic import height_index, w_h
from harmonicpack.params import builtin_shplus
from harmonicpack.superharmonic import ShState
from harmonicpack.weighting import WeightFunctionSet, bound_check, slack_allowance

from conftest import grid_sizes, harmonic_table


def fraction_weight(table, case, i):
    """A type-i item's weight under ``case`` by the rule in Fractions, as the
    weight set computed it before its weights moved onto one denominator."""
    a, b, g = table.alpha[i], table.beta[i], table.gamma[i]
    blue = (1 - a) / b
    red = a / g if g > 0 else Fraction(0)
    if case == 1:
        return blue
    j = table.K + 2 - case
    part = Fraction(1, 2) if j >= 2 else Fraction(0)  # of a share not in full
    return ((blue if table.phi[i] < j else blue * part)
            + (red if table.varphi[i] >= j else red * part))


TABLES = pytest.mark.parametrize(
    "tbl", [builtin_shplus(), harmonic_table(7), harmonic_table(38)],
    ids=["shplus", "h7", "h38"])


class TestIntegerRuleAgainstFractions:
    @TABLES
    def test_values(self, tbl):
        wset = WeightFunctionSet(tbl)
        assert wset.num_cases == tbl.K + 1
        for case in range(1, tbl.K + 2):
            assert wset.values[case][1:] == tuple(
                fraction_weight(tbl, case, i) for i in range(1, tbl.k + 1))

    @TABLES
    def test_case_totals(self, tbl):
        # seeded integer counts (as bound_check passes, length k+1) and
        # Fraction multipliers (as weight_bounds passes, length k+2)
        wset, k = WeightFunctionSet(tbl), tbl.k
        rng = random.Random(k)
        for trial in range(40):
            if trial % 2:
                counts = [0, *(rng.choice((0, rng.randint(1, 10 ** 4))) for _ in range(k))]
            else:
                counts = [0, *(Fraction(rng.randint(0, 10 ** 6), rng.randint(1, 10 ** 9))
                               for _ in range(k + 1))]
            tail = Fraction(rng.randint(0, 10 ** 6), rng.randint(1, 10 ** 6))
            want = [None, *(sum((counts[i] * fraction_weight(tbl, case, i)
                                 for i in range(1, k + 1)), Fraction(0))
                            + tail / (1 - tbl.eps) for case in range(1, tbl.K + 2))]
            assert wset.case_totals(counts, tail) == want

    @TABLES
    def test_height_row(self, tbl):
        # W_H at both ends of every interval (t[m+1], t[m]]
        wset, hk = WeightFunctionSet(tbl), height_index(tbl.eps)
        for m in range(1, tbl.k + 1):
            h = Fraction(wset.height[m], wset.den)
            assert w_h(tbl.t[m], hk) == h
            assert w_h(tbl.t[m + 1] + Fraction(1, 10 ** 12), hk) == h


class TestCaseWeights:
    def test_case_one_is_blue_share(self, table, wset):
        # (1 - 0.162) / 2 on the 0.42 interval
        assert wset.w(Fraction("0.41"), 1) == Fraction("0.419")

    def test_case_two_full_red_share(self, wset):
        # threshold j=6: phi(9)=0 < 6 and varphi(9)=6 >= 6 -> blue + red
        assert wset.w(Fraction("0.41"), 2) == Fraction("0.581")

    def test_case_seven_branches(self, table, wset):
        # type 16 (phi=0, varphi=1>0): blue + red
        assert wset.w(Fraction("0.22"), 7) == Fraction("0.3895")
        # types 2..7 (phi>0, varphi=0): zero
        assert wset.w(Fraction("0.7"), 7) == 0
        # type 12 (phi=1>0, varphi=3>0): red share only
        assert wset.w(Fraction("0.35"), 7) == table.alpha[12] / table.gamma[12]

    def test_tail_rule_every_case(self, wset):
        for case in range(1, 8):
            assert wset.w(Fraction(1, 100), case) == Fraction(38, 37) / 100

    def test_halved_branches_case_six(self, table, wset):
        # threshold j=2: type 13 has phi=1 < 2 and varphi=2 >= 2
        a, b, g = table.alpha[13], table.beta[13], table.gamma[13]
        assert wset.values[6][13] == (1 - a) / b + a / g
        # type 12 has phi=1 < 2 and varphi=3 >= 2 as well
        a12 = table.alpha[12]
        assert wset.values[6][12] == (1 - a12) / 2 + a12
        # type 7 has phi=6 >= 2, varphi=0 < 2: halved blue, no red
        assert wset.values[6][7] == Fraction(1, 2)

    def test_weights_nonnegative(self, wset):
        for case in range(1, 8):
            assert all(v >= 0 for v in wset.values[case][1:])

    def test_red_free_types_equal_across_cases(self, table, wset):
        # alpha = 0 and phi = varphi = 0: every branch collapses to 1/beta
        for i in (1, 8, 14, 50):
            assert table.alpha[i] == 0 and table.phi[i] == 0
            vals = {wset.values[c][i] for c in range(1, 8)}
            assert vals == {Fraction(1, table.beta[i])}

    def test_gamma_zero_replaces_red_share(self, table, wset):
        # row 50 is red-free with gamma 0; cases that would add a red
        # share must treat it as zero
        assert wset.values[2][50] == Fraction(1, 37)

    def test_case_range_checked(self, wset):
        with pytest.raises(ValueError):
            wset.w(Fraction(1, 2), 8)


class TestBoundCheck:
    def test_case_totals_linear_in_counts(self, table, wset):
        counts = [0] * (table.k + 2)
        counts[9] = 10
        totals = wset.case_totals(counts, Fraction(0))
        assert totals[1] == 10 * Fraction("0.419")
        assert totals[2] == 10 * Fraction("0.581")

    def test_bound_holds_and_is_case_consistent(self, table, wset):
        st = ShState(table)
        for s in grid_sizes(random.Random(77), 8000):
            st.insert(s.numerator, s.denominator)
        rep = bound_check(st, wset)
        assert rep.cost <= rep.max_total + slack_allowance(table)
        assert rep.max_total >= rep.case_totals[rep.case_id]
        assert rep.case_id == st.final_case().case_id

    def test_slack_does_not_scale_with_n(self, table, wset):
        slacks = {}
        for n in (1000, 10000):
            st = ShState(table)
            for s in grid_sizes(random.Random(5), n):
                st.insert(s.numerator, s.denominator)
            slacks[n] = bound_check(st, wset).slack
        assert slacks[10000] <= slacks[1000] + 10
