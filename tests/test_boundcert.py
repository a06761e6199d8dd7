import hashlib
import random
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm

import pytest

from harmonicpack import boundcert
from harmonicpack.boundcert import (LinearCut, PatternModel, PiecewiseFn,
                                    TUNED_LAMBDA, _upper_right_hull, build_f, build_g,
                                    brute_force_max, builtin_model_constraints,
                                    cut_max_lhs, pattern_max,
                                    quantized_fn, quantized_model,
                                    ratio_certificate, ratio_hull, round6,
                                    shplus_pattern_model, validate_cut)
from harmonicpack.harmonic import w_h
from harmonicpack.weighting import WeightFunctionSet

from conftest import fraction_builds, harmonic_table


@pytest.fixture(scope="module")
def model(table):
    return shplus_pattern_model(table)


def random_fn(rnd, ntypes, tail=Fraction(38, 37)):
    return PiecewiseFn(nums=(None, *(rnd.randint(0, 2000) for _ in range(ntypes))),
                       den=1000, tail_slope=tail)


def exact_g(i, j, f, wset):
    """The exact g of the pair (i, j), whose f is ``f``."""
    return build_g(j, ratio_hull(i, f, wset), wset)


def seeded_lambda(seed):
    """The tuned table with each entry moved by a seeded multiple of 1/1000
    in [-0.03, 0.03]."""
    rng = random.Random(seed)
    return {ij: lam + Fraction(rng.randint(-30, 30), 1000)
            for ij, lam in TUNED_LAMBDA.items()}


class TestRound6:
    def test_matches_fraction_rounding_ties_to_even(self):
        rnd = random.Random(6)
        xs = [Fraction(k, 2 * 10 ** 6) for k in range(-41, 42)]  # ties
        xs += [Fraction(rnd.randint(-10 ** 12, 10 ** 12), rnd.randint(1, 10 ** 9))
               for _ in range(2000)]
        for x in xs:
            assert round6(x.numerator, x.denominator) == round(x * 10 ** 6), x

    def test_unreduced_pairs_round_as_their_value(self):
        # a pair not in lowest terms, an exact half-unit ((2k+1)/2 millionths)
        # among them, rounds as the reduced Fraction does, ties included
        rnd = random.Random(16)
        pairs = [(2 * (2 * k + 1), 4 * 10 ** 6) for k in range(-21, 21)]
        pairs += [(rnd.randint(-10 ** 12, 10 ** 12), rnd.randint(1, 10 ** 9))
                  for _ in range(500)]
        for num, den in pairs:
            x = Fraction(num, den)
            want = round6(x.numerator, x.denominator)
            assert round6(num, den) == want == round(x * 10 ** 6), (num, den)
            c = rnd.randint(2, 10 ** 30)
            assert round6(num * c, den * c) == want, (num, den, c)


def height_values(wset):
    """W_H per type interval as Fractions, read from the weight set."""
    return (None, *(Fraction(h, wset.den) for h in wset.height[1:]))


class TestHeightValues:
    def test_height_weight_constant_per_interval(self, table, wset):
        H = height_values(wset)
        for m in range(1, 51):
            # both interval endpoints carry the same height weight
            assert w_h(table.t[m], 38) == H[m]
            probe = table.t[m + 1] + Fraction(1, 10 ** 9)
            assert w_h(probe, 38) == H[m]


class TestBuildF:
    def test_midpoint_mix_on_unit_interval(self, wset):
        f = build_f(1, Fraction(1, 2), wset)
        assert f.values[2] == 1  # both components are 1 on interval 2
        assert f.tail_slope == Fraction(38, 37)

    def test_lambda_one_is_height_weight(self, wset):
        f = build_f(3, Fraction(1), wset)
        assert f.values[1:] == height_values(wset)[1:]

    def test_lambda_range_checked(self, wset):
        with pytest.raises(ValueError):
            build_f(1, Fraction(2), wset)


class TestBuildG:
    def test_soundness_sampled(self, table, wset):
        # g(x) >= W(x,y)/f(y) on random pairs (exact comparison)
        from harmonicpack.pack2d import w2d
        lam = Fraction(1, 2)
        f = build_f(1, lam, wset)
        g = exact_g(1, 1, f, wset)
        rnd = random.Random(0)
        for _ in range(20000):
            x = Fraction(rnd.randint(1, 10 ** 6), 10 ** 6)
            y = Fraction(rnd.randint(1, 10 ** 6), 10 ** 6)
            fy = _eval(f, y, table)
            gx = _eval(g, x, table)
            assert w2d(1, 1, x, y, wset) <= fy * gx

    def test_soundness_exhaustive_cells(self, table, wset):
        # piecewise structure: checking one point per (x,y) interval cell
        # plus the tails covers the whole square exactly
        from harmonicpack.pack2d import w2d
        probes = [table.t[m] for m in range(1, 52)]  # incl. the tail at eps
        for (i, j) in ((1, 1), (2, 5), (7, 6), (6, 1)):
            lam = TUNED_LAMBDA[(i, j)]
            f = build_f(i, lam, wset)
            g = exact_g(i, j, f, wset)
            for x in probes:
                gx = _eval(g, x, table)
                for y in probes:
                    assert w2d(i, j, x, y, wset) <= _eval(f, y, table) * gx

    def test_soundness_all_pairs_complete(self, table, wset):
        """Complete soundness of every pair: both weights are constant per
        interval and linear on the tail, so checking one inequality per
        (x-interval, y-interval) cell plus the three tail combinations
        covers the entire unit square exactly (strictly stronger than any
        amount of random sampling)."""
        H = height_values(wset)
        ts = wset.tail_slope
        k = table.k
        for (i, j), lam in TUNED_LAMBDA.items():
            Bi, Bj = wset.values[i], wset.values[j]
            f = build_f(i, lam, wset)
            g = exact_g(i, j, f, wset)
            for m in range(1, k + 1):
                gm = g.values[m]
                for n in range(1, k + 1):
                    assert (H[m] * Bi[n] + Bj[m] * H[n]) <= 2 * f.values[n] * gm
                # y in the tail: numerator and f slopes share the factor y
                assert (H[m] + Bj[m]) / 2 <= gm
            for n in range(1, k + 1):
                # x in the tail: both x-factors are x*ts
                assert ts * (Bi[n] + H[n]) / 2 <= f.values[n] * g.tail_slope
            assert ts <= g.tail_slope  # both coordinates in the tail

    def test_half_mix_tail_slope_is_common_value(self, wset):
        f = build_f(1, Fraction(1, 2), wset)
        g = exact_g(1, 1, f, wset)
        assert g.tail_slope == Fraction(38, 37)

    def test_exact_tail_exceeds_pinned_for_skewed_mix(self, wset):
        # paper-compat pins the tail where it rounds the values: the slope
        # quantized_fn is given replaces g's exact one, which lies above it
        lam = TUNED_LAMBDA[(2, 5)]  # 0.565
        f = build_f(2, lam, wset)
        g_exact = exact_g(2, 5, f, wset)
        g_compat = quantized_fn(g_exact, wset.tail_slope)
        assert g_compat.tail_slope == Fraction(38, 37)
        assert g_exact.tail_slope > g_compat.tail_slope
        assert g_compat.values[1:] == tuple(Fraction(round6(n, g_exact.den), 10 ** 6)
                                            for n in g_exact.nums[1:])

    def test_g_is_attained(self, table, wset):
        # each value of g is the largest of its 51 candidates (attained, and
        # not exceeded), on the tuned table and two seeded ones whose entries
        # move by multiples of 1/1000 in [-0.03, 0.03]
        H = height_values(wset)
        k, ts = table.k, wset.tail_slope
        tables = [TUNED_LAMBDA]
        for seed in (1, 2):
            rng = random.Random(seed)
            tables.append({ij: lam + Fraction(rng.randint(-30, 30), 1000)
                           for ij, lam in TUNED_LAMBDA.items()})
        for lams in tables:
            for (i, j), lam in lams.items():
                Bi, Bj = wset.values[i], wset.values[j]
                f = build_f(i, lam, wset)
                points = [(Fraction(1, 2), Fraction(1, 2))] + [
                    (Bi[n] / (2 * f.values[n]), H[n] / (2 * f.values[n]))
                    for n in range(1, k + 1)]
                g = exact_g(i, j, f, wset)
                for m in range(1, k + 1):
                    cands = [H[m] * p + Bj[m] * q for p, q in points]
                    assert g.values[m] == max(cands), (lam, i, j, m)
                factors = [p + q for p, q in points]  # (1/2, 1/2) gives 1
                assert g.tail_slope / ts == max(factors), (lam, i, j)

    def test_g_is_on_its_reduced_denominator(self, wset):
        # every g of the tuned table has coprime integers over a divisor of
        # D*V, V the lcm of its hull's W, and its values and tail slope are
        # those of the old construction: the monotone chain over 2*D*M, M the
        # lcm of f's numerators, and g over 2*D*D*M.  Every vertex coordinate
        # stays below 2**160, so no such common scale comes back unseen
        D, h, w = wset.den, wset.height, wset.rows
        for (i, j), lam in TUNED_LAMBDA.items():
            f = build_f(i, lam, wset)
            vertices = ratio_hull(i, f, wset)
            assert all(0 <= v < 2 ** 160 for vertex in vertices for v in vertex), (i, j)
            g = build_g(j, vertices, wset)
            assert gcd(g.den, *g.nums[1:]) == 1, (i, j)
            assert D * lcm(*(v for _, _, v in vertices)) % g.den == 0, (i, j)
            fv = f.nums[1:len(h)]
            M = lcm(*fv)
            scale = [f.den * (M // u) for u in fv]
            hull = _reference_hull([(D * M, D * M)] + [
                (b * s, hn * s) for b, hn, s in zip(w[i][1:], h[1:], scale)])
            den = 2 * D * D * M
            nums = [max(hm * x + b * y for x, y in hull) for hm, b in zip(h[1:], w[j][1:])]
            assert g.values[1:] == tuple(Fraction(n, den) for n in nums), (i, j)
            assert den % g.den == 0 and den > g.den, (i, j)
            # tail x: the direction (1, 1), over the points' 2*D*M
            slope = wset.tail_slope * Fraction(max(x + y for x, y in hull), 2 * D * M)
            assert g.tail_slope == slope, (i, j)

    def test_requires_positive_f(self, wset):
        f = build_f(7, Fraction(0), wset)  # case-7 weights vanish on types 2..7
        with pytest.raises(ValueError, match="^f must be strictly positive to form "
                                             "the ratio g$"):
            ratio_hull(7, f, wset)


def _reference_hull(points) -> list:
    """The monotone chain that built f's ratio hull on one common scale
    before the hull ran on homogeneous points, kept as a differential oracle:
    right to left over the points higher than all points to their right, a
    vertex on or below its neighbours' chord dropped."""
    hull = []
    for x, y in sorted(points, reverse=True):
        if hull and y <= hull[-1][1]:
            continue
        while len(hull) >= 2 and ((hull[-1][0] - hull[-2][0]) * (y - hull[-2][1])
                                  <= (hull[-1][1] - hull[-2][1]) * (x - hull[-2][0])):
            hull.pop()
        hull.append((x, y))
    return hull


def _rational(points) -> list:
    """Homogeneous points (X, Y, W) as the rational points (X/W, Y/W)."""
    return [(Fraction(x, w), Fraction(y, w)) for x, y, w in points]


def _reference_vertices(points) -> list:
    """The oracle's hull of homogeneous points, scaled to one denominator,
    read back as rational points."""
    L = lcm(*(w for _, _, w in points))
    hull = _reference_hull([(x * (L // w), y * (L // w)) for x, y, w in points])
    return [(Fraction(x, L), Fraction(y, L)) for x, y in hull]


class TestRatioHull:
    @pytest.mark.parametrize("seed,mode", [(None, "paper-compat"), (None, "exact"),
                                           (4, "exact")])
    def test_one_hull_per_distinct_f(self, wset, monkeypatch, seed, mode):
        # a certificate builds f's ratio hull once for every j sharing its
        # (i, lam): 37 hulls of two vertices each on the tuned table's 49 pairs
        lams = TUNED_LAMBDA if seed is None else seeded_lambda(seed)
        hulls = []
        monkeypatch.setattr(boundcert, "_upper_right_hull", lambda points: hulls.append(
            _upper_right_hull(points)) or hulls[-1])
        ratio_certificate(wset, lam_table=lams, mode=mode)
        assert len(hulls) == len({(i, lam) for (i, _), lam in lams.items()}) < 49
        if seed is None:
            assert len(hulls) == 37 and all(len(h) == 2 for h in hulls)

    @pytest.mark.parametrize("seed", [None, 1, 2, 3, 4])
    def test_certificate_hulls_equal_the_monotone_chain(self, wset, monkeypatch, seed):
        # every ratio hull of the tuned table (37) and of four seeded ones
        # has the oracle's vertices, in order, as rational points
        lams = TUNED_LAMBDA if seed is None else seeded_lambda(seed)
        seen = []
        monkeypatch.setattr(boundcert, "_upper_right_hull", lambda points: seen.append(
            (points, _upper_right_hull(points))) or seen[-1][1])
        for i, lam in {(i, lam) for (i, _), lam in lams.items()}:
            ratio_hull(i, build_f(i, lam, wset), wset)
        assert len(seen) == (37 if seed is None else len({(i, lam) for (i, _), lam
                                                           in lams.items()}))
        for points, hull in seen:
            assert len(points) == 51
            assert _rational(hull) == _reference_vertices(points)

    def test_random_hulls_equal_the_monotone_chain(self):
        # coordinates from a small range and W in 1..6 make duplicates,
        # collinear runs and ties in x and in y common
        rnd = random.Random(33)
        for _ in range(2500):
            points = [(rnd.randint(0, 12), rnd.randint(0, 12), rnd.randint(1, 6))
                      for _ in range(rnd.randint(3, 60))]
            assert _rational(_upper_right_hull(points)) == _reference_vertices(points), points

    def test_collinear_and_tied_points(self):
        # the farthest of collinear points is kept, the start is the highest
        # of the rightmost points, and a duplicate vertex appears once
        points = [(2, 0, 1), (1, 1, 1), (0, 2, 1), (4, 0, 2), (2, 0, 2), (2, 2, 2)]
        assert _rational(_upper_right_hull(points)) == [(2, 0), (0, 2)]
        points = [(3, 0, 1), (3, 1, 1), (6, 2, 2), (1, 3, 1), (0, 3, 1)]
        assert _rational(_upper_right_hull(points)) == [(3, 1), (1, 3)]


class TestHarmonicClosedForms:
    @pytest.mark.parametrize("m,ratio", [(3, Fraction(7, 4)), (7, Fraction(61, 36)),
                                         (38, Fraction(438, 259))])
    def test_height_weight_gives_lee_and_lee_ratios(self, m, ratio):
        # on a Harmonic(m) table W_H is the Harmonic weight 1/t per type with
        # tail m/(m-1), and its heaviest genuine bin is Lee and Lee's
        # Harmonic(m) ratio (J. ACM 1985)
        other = harmonic_table(m)
        wh = WeightFunctionSet(other)
        fn = PiecewiseFn(nums=wh.height, den=wh.den, tail_slope=wh.tail_slope)
        assert wh.tail_slope == Fraction(m, m - 1)
        model = shplus_pattern_model(other, include_cuts=False).strict
        assert pattern_max(fn, model)[0] == ratio


class TestCriterion1Ties:
    """Four of the six reference values criterion 1 misses are paper-compat
    P(f) values whose f has values on exact six-decimal half-ties: rounding
    some of those ties the other way reproduces the published value.  The
    other two, (7,1) P(g) and (7,7) P(f), stay unexplained."""

    @staticmethod
    def ties(f):
        """The types whose f value lies exactly halfway between millionths."""
        return {m for m in range(1, f.ntypes + 1) if 2 * (f.nums[m] * 10 ** 6 % f.den) == f.den}

    @pytest.mark.parametrize("pair,ties,flip,unflipped", [
        ((4, 3), {11, 16}, {11}, 1577139),
        ((6, 3), {13, 19}, {13}, 1582238),
        ((7, 3), {11, 13, 16}, {11, 16}, 1549823),
        ((7, 5), {11, 13, 16}, {16}, 1533652),
    ], ids=["4,3", "6,3", "7,3", "7,5"])
    def test_flipped_ties_give_the_published_pf(self, wset, model, reference_table,
                                                pair, ties, flip, unflipped):
        f = build_f(pair[0], TUNED_LAMBDA[pair], wset)
        assert self.ties(f) == ties
        q = quantized_fn(f, wset.tail_slope)
        # round6 takes a tie to its even neighbour; the flip takes the other
        nums = list(q.nums)
        for m in flip:
            nums[m] += 1 if nums[m] * f.den < f.nums[m] * 10 ** 6 else -1
        flipped = PiecewiseFn(nums=tuple(nums), den=q.den, tail_slope=q.tail_slope)
        model = quantized_model(model)
        published = Fraction(reference_table[pair]["pf"]) * 10 ** 6
        for fn, want in ((q, unflipped), (flipped, published)):
            value = pattern_max(fn, model)[0]
            assert round6(value.numerator, value.denominator) == want, (fn is q, want)
        assert unflipped != published

    def test_open_entries_have_no_tie(self, wset, model, reference_table):
        # (7,7) P(f) lies one unit above the published value, and neither its
        # f nor the g of (7,1) has a tie to flip
        f = build_f(7, TUNED_LAMBDA[(7, 1)], wset)
        assert self.ties(exact_g(7, 1, f, wset)) == set()
        f = build_f(7, TUNED_LAMBDA[(7, 7)], wset)
        assert self.ties(f) == set()
        value = pattern_max(quantized_fn(f, wset.tail_slope), quantized_model(model))[0]
        assert round6(value.numerator, value.denominator) == 1517144
        assert Fraction(reference_table[(7, 7)]["pf"]) * 10 ** 6 == 1517143


def _eval(fn, x, table):
    i = table.classify(x.numerator, x.denominator)
    if i == table.k + 1:
        return x * fn.tail_slope
    return fn.values[i]


class TestPatternMax:
    def test_zero_weights_leave_only_the_tail(self, model):
        fn = PiecewiseFn.from_values([Fraction(0)] * 50, tail_slope=Fraction(38, 37))
        val, pat = pattern_max(fn, model)
        assert val == Fraction(38, 37) and pat == {}

    def test_reference_value_flagship(self, wset, model):
        f = build_f(1, Fraction(1, 2), wset)
        val, pat = pattern_max(quantized_fn(f, wset.tail_slope), quantized_model(model))
        assert round6(val.numerator, val.denominator) == 1598272
        # the witness pattern is feasible and attains the value
        assert sum(model.sizes[m] * c for m, c in pat.items()) <= 1

    @pytest.mark.parametrize("include_cuts", [False, True])
    def test_matches_brute_force_on_truncation(self, table, include_cuts):
        # with cuts, the 12-type model keeps five truncated compound cuts as
        # constraint rows, 5*x7 + 3.53*x11 <= 9 among them.  None binds there
        # (type 7's cap is 1, and the knapsack row excludes {7: 1, 11: 2}), so
        # a row that admits too much shows only on 15 types: cut_7_15 excludes
        # {7: 1, 15: 2}, which fills the closed bin exactly
        model12 = shplus_pattern_model(table, include_cuts=include_cuts, num_types=12)
        assert len(model12.constraints) == (5 if include_cuts else 0)
        rnd = random.Random(123)
        for _ in range(20):
            fn = random_fn(rnd, 12)
            assert pattern_max(fn, model12)[0] == brute_force_max(fn, model12)[0]
        model15 = shplus_pattern_model(table, include_cuts=include_cuts, num_types=15)
        fn = PiecewiseFn.from_values((Fraction({7: 2, 15: 1}.get(m, 0)) for m in range(1, 16)),
                                     tail_slope=Fraction(0))
        want = 3 if include_cuts else 4
        assert pattern_max(fn, model15)[0] == brute_force_max(fn, model15)[0] == want

    @pytest.mark.parametrize("include_cuts", [False, True])
    def test_certificate_fns_match_brute_force_on_truncation(self, table, wset,
                                                             include_cuts):
        # the exact-mode f and g of real pairs: on these types their values
        # share a denominator of 6 to 11 digits, against 1000 for random_fn
        model12 = shplus_pattern_model(table, include_cuts=include_cuts, num_types=12)
        lams = seeded_lambda(1)
        for i, j in ((1, 6), (6, 1), (7, 7)):
            f = build_f(i, lams[(i, j)], wset)
            g = exact_g(i, j, f, wset)
            for fn in (f, g):
                assert lcm(*(v.denominator for v in fn.values[1:13])) > 10 ** 5
                assert pattern_max(fn, model12)[0] == brute_force_max(fn, model12)[0]

    def test_density_ties_go_to_the_smaller_type(self):
        # types 1 and 2 have one gain per unit size; {1: 2}, {2: 4} and
        # {1: 1, 2: 2} all weigh 2, and the search meets type 1 first
        model = PatternModel(sizes=(None, Fraction(1, 2), Fraction(1, 4)),
                             caps=(None, 2, 4), constraints=())
        fn = PiecewiseFn.from_values((Fraction(1), Fraction(1, 2)), tail_slope=Fraction(0))
        assert pattern_max(fn, model) == (2, {1: 2})

    @pytest.mark.parametrize("tail", [Fraction(0), Fraction(1, 2)])
    def test_density_ties_go_to_the_smaller_type_of_smaller_size(self, tail):
        # now type 1 is the smaller item: {1: 4} and {2: 2} weigh the same,
        # gain per unit size ties (3/2 each with the tail at 1/2) and the
        # search meets type 1 first; unreduced values change nothing
        model = PatternModel(sizes=(None, Fraction(1, 4), Fraction(1, 2)),
                             caps=(None, 4, 2), constraints=())
        fn = PiecewiseFn(nums=(None, 6, 12), den=12, tail_slope=tail)
        assert pattern_max(fn, model) == (2, {1: 4})

    def test_witness_attains_value(self, wset, model):
        f = build_f(3, TUNED_LAMBDA[(3, 4)], wset)
        val, pat = pattern_max(f, model)
        used = sum((model.sizes[m] * c for m, c in pat.items()), Fraction(0))
        direct = sum((f.values[m] * c for m, c in pat.items()), Fraction(0)) \
            + (1 - used) * f.tail_slope
        assert direct == val

    def test_cuts_only_tighten(self, wset, table):
        with_cuts = shplus_pattern_model(table, include_cuts=True)
        without = shplus_pattern_model(table, include_cuts=False)
        for (i, j) in ((1, 1), (7, 6)):
            f = build_f(i, TUNED_LAMBDA[(i, j)], wset)
            assert pattern_max(f, without)[0] >= pattern_max(f, with_cuts)[0]

    def test_adding_valid_cut_never_increases(self, wset, table, model):
        f = build_f(1, Fraction(1, 2), wset)
        base, _ = pattern_max(f, model)
        extra = LinearCut.make("extra_pair_8_14", {8: 2, 14: 1}, 5)
        assert validate_cut(extra, model) is None
        tightened = PatternModel(sizes=model.sizes, caps=model.caps,
                                 constraints=model.constraints + (extra,),
                                 capacity=model.capacity)
        assert pattern_max(f, tightened)[0] <= base


    @pytest.mark.parametrize("m", [7, 38])
    def test_cuts_refused_on_another_table(self, m):
        # the compound cuts are the built-in table's: on Harmonic(38) the
        # audit refutes every one of them, and on Harmonic(7) the group of
        # types 1..7 would read t[8] = 0.  Without cuts any table builds
        other = harmonic_table(m)
        for build in (lambda: shplus_pattern_model(other),
                      lambda: builtin_model_constraints(other),
                      lambda: ratio_certificate(WeightFunctionSet(other), mode="exact")):
            with pytest.raises(ValueError, match=r"^the compound cuts hold for the "
                                                 r"built-in table only; [^\n]*$"):
                build()
        model = shplus_pattern_model(other, include_cuts=False)
        assert model.constraints == () and model.ntypes == other.k
        assert model.caps[1:] == tuple(range(1, m))  # type t: sizes in (1/(t+1), 1/t]


def _recursive_pattern_max(fn, model):
    """The recursive branch and bound that pattern_max ran before its search
    became a loop, kept as a differential oracle: it reads PatternModel.grid
    and the plain fields of fn and model, and no other boundcert code."""
    if len(fn.nums) < len(model.sizes):
        raise ValueError("weight function does not cover all model types")
    R = fn.tail_slope
    S, CAP, G, rows = model.grid
    # gain of type m: values[m] - sizes[m]*R = (nums[m]*(L/den) - S[m]*r) / L,
    # where R/G = r/L
    L = lcm(fn.den, R.denominator * G)
    r, per = R.numerator * (L // (R.denominator * G)), L // fn.den
    gains = {m: fn.nums[m] * per - S[m] * r for m in range(1, len(model.sizes))}
    cand = [m for m in gains if gains[m] > 0 and S[m] <= CAP]
    # density order, ties broken by type index: gain/size is gain*(P/size)/P
    P = lcm(*(S[m] for m in cand))
    cand.sort(key=lambda m: (-gains[m] * (P // S[m]), m))
    ncand = len(cand)
    caps = [min(model.caps[m], CAP // S[m]) for m in cand]
    sizes = [S[m] for m in cand]
    gain = [gains[m] for m in cand]

    # the constraint rows each candidate variable appears in
    var_cons = [[] for _ in range(ncand)]
    pos_of = {m: t for t, m in enumerate(cand)}
    for ci, (_, coeffs) in enumerate(rows):
        for m, c in coeffs:
            if m in pos_of:
                var_cons[pos_of[m]].append((ci, c))

    # prefix sums over candidate order for the greedy bound
    PS = [0, *accumulate(s * c for s, c in zip(sizes, caps))]
    PW = [0, *accumulate(w * c for w, c in zip(gain, caps))]

    best_val = 0
    best_pat: dict = {}
    x = [0] * ncand
    slack = [rhs for rhs, _ in rows]

    def rec(idx: int, rem: int, obj: int):
        nonlocal best_val, best_pat
        if obj > best_val:
            best_val = obj
            best_pat = {cand[t]: x[t] for t in range(idx) if x[t]}
        if idx == ncand:
            return
        # prune when the greedy bound cannot beat best_val: candidates
        # idx..p-1 at their caps and p fractional fill the remaining capacity
        budget = PS[idx] + rem
        p = bisect_right(PS, budget) - 1
        if p >= ncand:
            if obj + PW[ncand] - PW[idx] <= best_val:
                return
        elif (obj + PW[p] - PW[idx] - best_val) * sizes[p] + (budget - PS[p]) * gain[p] <= 0:
            return
        vmax = min(caps[idx], rem // sizes[idx])
        for ci, co in var_cons[idx]:
            vmax = min(vmax, slack[ci] // co)
        for v in range(vmax, -1, -1):
            x[idx] = v
            if v:
                for ci, co in var_cons[idx]:
                    slack[ci] -= co * v
            rec(idx + 1, rem - v * sizes[idx], obj + v * gain[idx])
            if v:
                for ci, co in var_cons[idx]:
                    slack[ci] += co * v
        x[idx] = 0

    rec(0, CAP, 0)
    return Fraction(R.numerator * (L // R.denominator) + best_val, L), best_pat


class TestSearchOracle:
    """pattern_max against the recursive search: the value and the argmax
    pattern, ties included."""

    @pytest.mark.parametrize("mode", ["paper-compat", "exact"])
    @pytest.mark.parametrize("seed", [None, 21, 22, 23])
    def test_every_certificate_function(self, table, wset, mode, seed):
        # every f and g that ratio_certificate solves, on the tuned table and
        # on three seeded ones
        lams = TUNED_LAMBDA if seed is None else seeded_lambda(seed)
        compat = mode == "paper-compat"
        model = shplus_pattern_model(table)
        model = quantized_model(model) if compat else model
        hulls, fns = {}, []
        for (i, j), lam in lams.items():
            if (i, lam) not in hulls:
                f = build_f(i, lam, wset)
                hulls[(i, lam)] = ratio_hull(i, f, wset)
                fns.append(f)
            fns.append(build_g(j, hulls[(i, lam)], wset))
        assert len(fns) == 49 + len(hulls)
        for fn in fns:
            fn = quantized_fn(fn, wset.tail_slope) if compat else fn
            assert pattern_max(fn, model) == _recursive_pattern_max(fn, model)

    @pytest.mark.parametrize("num_types", [7, 12, 15, 30, 50])
    def test_random_functions(self, table, num_types):
        # uniform values and tie-heavy ones (integers 0..5, with and without
        # a tail), on the truncation with its cuts and on its strict model
        cut_model = shplus_pattern_model(table, num_types=num_types)
        rnd = random.Random(500 + num_types)
        fns = [random_fn(rnd, num_types) for _ in range(12)]
        fns += [PiecewiseFn(nums=(None, *(rnd.randint(0, 5) for _ in range(num_types))),
                            den=rnd.choice((1, 4)), tail_slope=tail)
                for tail in (Fraction(0), Fraction(38, 37)) for _ in range(12)]
        for model in (cut_model, cut_model.strict):
            for fn in fns:
                assert pattern_max(fn, model) == _recursive_pattern_max(fn, model), fn

    def test_every_published_cut(self, table, model):
        # the function of each cut that cut_max_lhs maximizes on the model's
        # strict model, and on that model's types up to the cut's largest
        # alone, as the audit solved it before: both give the audit's peak
        # and pattern
        strict = model.strict
        for cut in builtin_model_constraints(table):
            coeff = dict(cut.coeffs)
            n = max(cut.support)
            head = PatternModel(sizes=strict.sizes[:n + 1], caps=strict.caps[:n + 1],
                                constraints=(), capacity=strict.capacity)
            solves = []
            for sub in (strict, head):
                fn = PiecewiseFn.from_values(
                    (coeff.get(m, 0) for m in range(1, sub.ntypes + 1)), tail_slope=Fraction(0))
                solves.append(_recursive_pattern_max(fn, sub))
                assert pattern_max(fn, sub) == solves[-1], cut.name
            assert cut_max_lhs(cut, model) == solves[0] == solves[1], cut.name


class TestBruteForce:
    def test_zero_weights(self, table):
        m = shplus_pattern_model(table, include_cuts=False, num_types=7)
        fn = PiecewiseFn.from_values([Fraction(0)] * 7, tail_slope=Fraction(38, 37))
        assert brute_force_max(fn, m)[0] == Fraction(38, 37)

    def test_large_type_model_single_item_only(self, table):
        # types 1..7 all exceed half a bin, and no two fit one bin;
        # the best pattern is the single best item (or nothing)
        m = shplus_pattern_model(table, include_cuts=False, num_types=7)
        rnd = random.Random(7)
        fn = random_fn(rnd, 7)
        R = fn.tail_slope
        best_single = max([R] + [fn.values[i] + (1 - m.sizes[i]) * R
                                 for i in range(1, 8)])
        assert brute_force_max(fn, m)[0] == best_single

    def test_refuses_wide_models(self, table):
        m = shplus_pattern_model(table, include_cuts=False, num_types=16)
        fn = random_fn(random.Random(1), 16)
        with pytest.raises(ValueError):
            brute_force_max(fn, m)


class TestValidateCut:
    def test_pair_cut_valid(self, model):
        cut = LinearCut.make("cut_7_15", {7: 2, 15: 1}, "3.9")
        assert validate_cut(cut, model) is None

    def test_appendix_pair_cut_from_model_file(self, model):
        cut = LinearCut.make("x", {7: 2, 15: 1}, "3.9")
        # boundary: one large plus two quarter-items sums exactly to 1,
        # which genuine strictly-larger sizes cannot reach
        assert validate_cut(cut, model) is None

    def test_fabricated_cap_yields_counterexample(self, model):
        # the counterexample is the heaviest genuine pattern: 37 items just
        # above 1/38 fit one bin
        cut = LinearCut.make("x50_le_2", {50: 1}, 2)
        cex = validate_cut(cut, model)
        assert cex == {50: 37}
        assert cut.lhs(cex) > cut.rhs
        assert sum(model.sizes[m] * c for m, c in cex.items()) < 1

    def test_unsound_published_cut_detected(self, model):
        # 5x7 + 3.53x11 + 1.47x18 <= 9 excludes the genuine pattern
        # {7:1, 18:3} (sizes just above 0.5 and 0.147 fit one bin) whose
        # left side is 9.41
        cut = LinearCut.make("cut_7_11_18", {7: 5, 11: "3.53", 18: "1.47"}, 9)
        cex = validate_cut(cut, model)
        assert cex is not None
        assert cut.lhs(cex) > 9
        used = sum((model.sizes[m] * c for m, c in cex.items()), Fraction(0))
        assert used < 1

    def test_all_published_constraints(self, table, model):
        results = {}
        for cut in builtin_model_constraints(table):
            results[cut.name] = validate_cut(cut, model)
        bad = {name: cex for name, cex in results.items() if cex is not None}
        # exactly one published constraint is unsound
        assert set(bad) == {"cut_7_11_18"}

    def test_mutation_breaks_every_constraint(self, table, model):
        for cut in builtin_model_constraints(table):
            peak, _ = cut_max_lhs(cut, model)
            assert peak > 0
            mutated = LinearCut.make(cut.name + "_tight", dict(cut.coeffs),
                                     peak - Fraction(1, 100))
            assert validate_cut(mutated, model) is not None

    def test_derived_caps_match_published_table(self, table, model):
        published = ([None] + [1] * 7 + [2] * 6 + [3, 3, 4, 5, 6, 6]
                     + [m - 13 for m in range(20, 51)])
        assert list(model.caps) == published
        # the solved model holds the compound cuts alone: the caps and the
        # knapsack row imply the group caps, which stay as audit data
        cuts = tuple(c for c in builtin_model_constraints(table) if c.name.startswith("cut_"))
        assert len(cuts) == 6 and model.constraints == cuts
        groups = {c.name: c.rhs for c in builtin_model_constraints(table)
                  if c.name.startswith(("group_", "pair_"))}
        assert groups == {"group_1_7": 1, "group_8_13": 2, "pair_18_19": 6}
        cap_names = [c.name for c in builtin_model_constraints(table)
                     if c.name.startswith("cap_")]
        assert cap_names == [f"cap_{m}" for m in [*range(14, 18), *range(20, 51)]]
        for cut in builtin_model_constraints(table):
            if cut.name.startswith("cap_"):
                assert cut.rhs == published[int(cut.name[4:])]
            peak, _ = cut_max_lhs(cut, model)
            assert (validate_cut(cut, model) is None) == (peak <= cut.rhs), cut.name

    def test_peak_matches_brute_force_on_strict_model(self, table):
        # genuine patterns are those that fit strictly: on the common grid of
        # the sizes they leave at least one grid unit of the bin free
        model12 = shplus_pattern_model(table, include_cuts=False, num_types=12)
        grid = lcm(*(size.denominator for size in model12.sizes[1:]))
        strict = PatternModel(sizes=model12.sizes, caps=(None, *([10] * 12)),
                              constraints=(), capacity=Fraction(grid - 1, grid))
        rnd = random.Random(2024)
        for _ in range(200):
            support = rnd.sample(range(1, 13), rnd.randint(1, 5))
            coeffs = {m: Fraction(rnd.randint(0, 30), rnd.randint(1, 7))
                      for m in support}
            cut = LinearCut.make("r", coeffs, rnd.randint(-3, 20))
            fn = PiecewiseFn.from_values((coeffs.get(m, Fraction(0)) for m in range(1, 13)),
                                         tail_slope=Fraction(0))
            assert cut_max_lhs(cut, model12)[0] == brute_force_max(fn, strict)[0]


class TestStrictModel:
    def test_products_never_exceed_the_published_model_without_the_refuted_cut(
            self, wset, table):
        # the strict model holds exactly the genuine patterns, which every
        # valid cut admits, and its tail fills one grid unit less of the bin
        full = shplus_pattern_model(table)
        sound = PatternModel(sizes=full.sizes, caps=full.caps,
                             constraints=tuple(c for c in full.constraints
                                               if c.name != "cut_7_11_18"),
                             capacity=full.capacity)
        strict = full.strict
        assert strict.ntypes == full.ntypes and strict.constraints == ()
        lower = 0
        for (i, j), lam in TUNED_LAMBDA.items():
            f = build_f(i, lam, wset)
            g = exact_g(i, j, f, wset)
            ours = pattern_max(f, strict)[0] * pattern_max(g, strict)[0]
            published = pattern_max(f, sound)[0] * pattern_max(g, sound)[0]
            assert ours <= published, (i, j)
            lower += ours < published
        assert lower == 19

    def test_model_is_frozen(self, model):
        # grid, solver and strict are cached: a model that could change
        # would keep serving the ones of its old caps
        strict = model.strict
        with pytest.raises(AttributeError):
            model.caps = strict.caps
        assert model.strict is strict

    @pytest.mark.parametrize("num_types", [1, 7, 12, 15])
    def test_matches_brute_force_on_strict_truncation(self, table, wset, num_types):
        strict = shplus_pattern_model(table, num_types=num_types).strict
        assert strict.ntypes == num_types
        rnd = random.Random(num_types)
        fns = [random_fn(rnd, num_types) for _ in range(5)]
        for i, j in ((1, 6), (7, 7)):
            f = build_f(i, TUNED_LAMBDA[(i, j)], wset)
            g = exact_g(i, j, f, wset)
            fns += [PiecewiseFn(nums=fn.nums[:num_types + 1], den=fn.den,
                                tail_slope=fn.tail_slope) for fn in (f, g)]
        for fn in fns:
            assert pattern_max(fn, strict)[0] == brute_force_max(fn, strict)[0]


class TestIntegerFunctions:
    @pytest.mark.parametrize("mode", ["paper-compat", "exact"])
    def test_values_equal_the_fraction_construction(self, table, wset, mode):
        # f and g as integers over one denominator give, value by value, the
        # Fractions of their definitions: f = lam*W_H + (1-lam)*W^i, g(x)
        # the largest of 51 ratio candidates, each rounded to six decimals
        # (ties to even) in paper-compat mode
        H, k, ts = height_values(wset), table.k, wset.tail_slope
        lams = seeded_lambda(3)
        for i, j in ((1, 6), (4, 2), (7, 7)):
            lam, Bi, Bj = lams[(i, j)], wset.values[i], wset.values[j]
            fv = (None, *(lam * H[n] + (1 - lam) * Bi[n] for n in range(1, k + 1)))
            points = [(Fraction(1, 2), Fraction(1, 2))] + [
                (Bi[n] / (2 * fv[n]), H[n] / (2 * fv[n])) for n in range(1, k + 1)]
            gv = (None, *(max(H[m] * p + Bj[m] * q for p, q in points)
                          for m in range(1, k + 1)))
            slope = ts * max(p + q for p, q in points) if mode == "exact" else ts
            f = build_f(i, lam, wset)
            g = exact_g(i, j, f, wset)
            if mode == "paper-compat":
                f, g = quantized_fn(f, ts), quantized_fn(g, ts)
                fv, gv = ((None, *(Fraction(round(v * 10 ** 6), 10 ** 6) for v in vs[1:]))
                          for vs in (fv, gv))
            assert (f.values, f.tail_slope) == (fv, ts), (i, j)
            assert (g.values, g.tail_slope) == (gv, slope), (i, j)

    @pytest.mark.parametrize("mode", ["paper-compat", "exact"])
    def test_certificate_builds_few_fractions(self, wset, mode):
        # f and g stay integers from the weight set to pattern_max: the 98
        # solves of a seeded table build under 1,000 Fractions (over 5,000
        # with a Fraction per value)
        assert fraction_builds(ratio_certificate, wset, seeded_lambda(5), mode) < 1000


@pytest.fixture(scope="module")
def compat_cert(wset):
    return ratio_certificate(wset, mode="paper-compat")


class TestCertificate:
    def test_overall_bound_inside_window(self, compat_cert):
        assert Fraction("2.5544") <= compat_cert.bound <= Fraction("2.5545")

    def test_retained_orientations_for_transposed_pairs(self, compat_cert):
        picks = {frozenset(k): o for k, (o, _) in compat_cert.retained.items()}
        assert picks[frozenset((1, 6))] == (6, 1)
        assert picks[frozenset((1, 2))] == (1, 2)
        assert picks[frozenset((2, 5))] == (5, 2)
        assert picks[frozenset((2, 6))] == (6, 2)

    def test_retained_never_exceeds_either_orientation(self, compat_cert):
        for key, (orient, val) in compat_cert.retained.items():
            i, j = tuple(key) if len(key) == 2 else (next(iter(key)),) * 2
            assert val <= compat_cert.entries[(i, j)].product
            assert val <= compat_cert.entries[(j, i)].product

    def test_lambda_override(self, wset):
        lam = {(i, j): Fraction(1, 2) for i in range(1, 8) for j in range(1, 8)}
        cert = ratio_certificate(wset, lam_table=lam, mode="paper-compat")
        # the tuned table never does worse than the flat mix on the pairs
        # that drive the bound
        flat_peak = max(v for _, v in cert.retained.values())
        assert flat_peak >= Fraction("2.5544")

    @pytest.mark.parametrize("mode", ["paper-compat", "exact"])
    def test_missing_lambda_pair_is_named(self, wset, mode):
        # a table without some case pair is refused with a ValueError that
        # names the first pair it lacks, not a KeyError
        with pytest.raises(ValueError, match=r"^pair 1,2: the lambda table has no entry$"):
            ratio_certificate(wset, lam_table={(1, 1): "0.5"}, mode=mode)
        lam = {(i, j): "0.5" for i in range(1, 8) for j in range(1, 8) if (i, j) != (7, 3)}
        with pytest.raises(ValueError, match=r"^pair 7,3: "):
            ratio_certificate(wset, lam_table=lam, mode=mode)

    def test_certificate_pinned_bit_for_bit(self, wset):
        # the exact Fractions and the argmax tie-breaking of both modes with
        # the tuned table, as the rational-arithmetic search first gave them
        rows = []
        for mode in ("paper-compat", "exact"):
            for (i, j), e in ratio_certificate(wset, mode=mode).entries.items():
                rows.append((mode, i, j, str(e.lam), str(e.pf), str(e.pg),
                             sorted(e.pf_pattern.items()),
                             sorted(e.pg_pattern.items())))
        digest = hashlib.sha256(repr(sorted(rows)).encode()).hexdigest()
        assert digest == ("4c4a9b62dfd6d6243f3e5cca938a9e41"
                          "0702197a4135f806e6d02c28bf7017e3")

    def test_certificate_pinned_bit_for_bit_seeded_lambda(self, wset):
        # as above on a λ table where almost every pair has its own f: each
        # tuned entry moved by a seeded multiple of 1/1000 in [-0.03, 0.03],
        # as the rational-arithmetic search first gave them
        rows = []
        for mode in ("paper-compat", "exact"):
            cert = ratio_certificate(wset, lam_table=seeded_lambda(1), mode=mode)
            for (i, j), e in cert.entries.items():
                rows.append((mode, i, j, str(e.lam), str(e.pf), str(e.pg),
                             sorted(e.pf_pattern.items()),
                             sorted(e.pg_pattern.items())))
        digest = hashlib.sha256(repr(sorted(rows)).encode()).hexdigest()
        assert digest == ("7a2d2a19cb94e04bb996fa5b9526e45a"
                          "c9f9f9ed1609c5b8d90ae3aa1dfb4da1")

    @pytest.mark.parametrize("mode", ["paper-compat", "exact"])
    def test_every_witness_is_feasible_and_attains_its_value(self, wset, table, mode):
        # all 98 solves of a mode: the argmax pattern keeps the caps, every
        # model constraint, every published constraint (the group caps too)
        # and the capacity, and its weight, evaluated again in plain
        # Fractions, is the reported value
        compat = mode == "paper-compat"
        model = shplus_pattern_model(table)
        model = quantized_model(model) if compat else model
        constraints = (*model.constraints, *builtin_model_constraints(table))
        for (i, j), e in ratio_certificate(wset, mode=mode).entries.items():
            f = build_f(i, e.lam, wset)
            g = exact_g(i, j, f, wset)
            if compat:
                f, g = quantized_fn(f, wset.tail_slope), quantized_fn(g, wset.tail_slope)
            for fn, value, pat in ((f, e.pf, e.pf_pattern), (g, e.pg, e.pg_pattern)):
                assert all(0 < x <= model.caps[m] for m, x in pat.items()), (i, j)
                assert all(cut.lhs(pat) <= cut.rhs for cut in constraints), (i, j)
                used = sum((model.sizes[m] * x for m, x in pat.items()), Fraction(0))
                assert used <= model.capacity, (i, j)
                direct = sum((fn.values[m] * x for m, x in pat.items()), Fraction(0))
                assert direct + (1 - used) * fn.tail_slope == value, (i, j)

    def test_sound_model_still_certifies_bound(self, wset, table):
        # remove the unsound published cut and use exact tails: the
        # overall retained bound survives unchanged at the same pair
        full = shplus_pattern_model(table)
        sound = PatternModel(
            sizes=full.sizes, caps=full.caps,
            constraints=tuple(c for c in full.constraints
                              if c.name != "cut_7_11_18"),
            capacity=full.capacity)
        prods = {}
        for (i, j), lam in TUNED_LAMBDA.items():
            f = build_f(i, lam, wset)
            g = exact_g(i, j, f, wset)
            prods[(i, j)] = pattern_max(f, sound)[0] * pattern_max(g, sound)[0]
        retained = {(i, j): min(prods[(i, j)], prods[(j, i)])
                    for i in range(1, 8) for j in range(i, 8)}
        bound = max(retained.values())
        assert bound <= Fraction("2.5545")
        assert max(retained, key=retained.get) == (1, 6)
