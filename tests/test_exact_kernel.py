"""The packers' integer kernel against Fraction arithmetic.

``classify`` and ``harmonic_type`` are checked against oracles that compare
Fractions, the way both were computed before they moved to integers; the
packers' integer sums are checked against Fraction sums of the items they
hold; the 2D geometry audit and weight totals are checked against their
Fraction forms, and a profile holds them to building no Fraction per slice;
and ``check_feasibility`` is fed one broken bin per violation kind.
"""

import bisect
import contextlib
import io
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from harmonicpack.generators import Item2D
from harmonicpack.cli import main
from harmonicpack.harmonic import harmonic_type, w_h
from harmonicpack.pack2d import TensorRun, tensor_cost, validate_geometry
from harmonicpack.params import _BUCKETS, builtin_shplus, exact_add, parse_pair, validate
from harmonicpack.superharmonic import ShState
from harmonicpack.weighting import WeightFunctionSet

from conftest import (Traced, class_value, fraction_builds, fraction_comparisons,
                      harmonic_bins, harmonic_table, move_column, packed, sides_of)


def fraction_type(table, size):
    """The type of ``size`` by bisecting the Fraction breakpoints t[k+1..2]."""
    asc = [table.t[i] for i in range(table.k + 1, 1, -1)]
    return table.k + 1 - bisect.bisect_left(asc, size)


def fraction_harmonic_type(size, k):
    return k if size * k <= 1 else int(1 / size)


def near_breakpoints(table):
    """Every breakpoint t[1..k+1], and 1e-12 and 1e-6 either side, in (0, 1]."""
    steps = (0, Fraction(1, 10 ** 12), Fraction(1, 10 ** 6))
    sizes = {t + sign * d for t in table.t[1:table.k + 2] for d in steps
             for sign in (1, -1)}
    return sorted(x for x in sizes if 0 < x <= 1)


def long_sizes(seed, n=300, digits=1000):
    """Sizes with 1,000-digit denominators, some in the tail, some just off a
    breakpoint of the built-in table."""
    rng = random.Random(seed)
    tiny = Fraction(1, 10 ** digits + 7)
    breaks = builtin_shplus().t[2:52]
    out = []
    for _ in range(n):
        q = rng.randrange(10 ** (digits - 1), 10 ** digits)
        out.append(Fraction(rng.randrange(1, q + 1), q))
        out.append(Fraction(rng.randrange(1, q // 40), q))
        out.append(rng.choice(breaks) + rng.choice((tiny, -tiny)))
    return out


class TestClassifyDifferential:
    @pytest.mark.parametrize("table", [builtin_shplus(), harmonic_table(7),
                                       harmonic_table(38)], ids=["shplus", "h7", "h38"])
    def test_near_every_breakpoint(self, table):
        assert validate(table) == []
        for x in near_breakpoints(table):
            assert table.classify(x.numerator, x.denominator) == fraction_type(table, x), x

    def test_thousand_digit_denominators(self, table):
        for x in long_sizes(seed=3):
            assert table.classify(x.numerator, x.denominator) == fraction_type(table, x)

    def test_tables_scale_by_their_own_denominator(self, table):
        # each table bisects its own integers: the Harmonic table's types are
        # Harmonic(m)'s, including at and beside the shared breakpoint 1/7
        h7 = harmonic_table(7)
        for x in near_breakpoints(h7) + near_breakpoints(table):
            p, q = x.as_integer_ratio()
            assert h7.classify(p, q) == harmonic_type(p, q, 7), x
        assert table.classify(1, 7) == 20 and h7.classify(1, 7) == 7

    @pytest.mark.parametrize("size", [Fraction(0), Fraction(11, 10), Fraction(-1, 2)])
    def test_out_of_range_messages(self, table, size):
        with pytest.raises(ValueError, match=rf"^item size {size} outside \(0, 1\]$"):
            table.classify(size.numerator, size.denominator)
        with pytest.raises(ValueError, match=rf"^item size {size} outside \(0, 1\]$"):
            harmonic_type(size.numerator, size.denominator, 38)
        with pytest.raises(ValueError, match=r"outside \(0,1\]\^2$"):
            Item2D(size, Fraction(1, 2))


def floors_cases(table):
    """Sizes (p, q), not reduced, at and beside every breakpoint t[1..k+1]:
    p = floor(t*q) - 1 ... floor(t*q) + 2 on q = 10**6, 10**40, a 4,300-digit q
    and multiples of t's own denominator; then 2/4 and seeded random sizes."""
    long_q = 10 ** 4299 + 7
    out = {(2, 4), (2, 6), (50, 100), (3, 9)}
    for t in table.t[1:table.k + 2]:
        d = t.denominator
        for q in (10 ** 6, 10 ** 40, long_q, d, 2 * d, 7 * d, 10 ** 6 * d):
            f = t.numerator * q // d
            out.update((p, q) for p in range(f - 1, f + 3) if 0 < p <= q)
    rng = random.Random(1037)
    for _ in range(400):
        q = rng.choice((10 ** 6, rng.randrange(1, 10 ** 12)))
        out.add((rng.randrange(1, q + 1), q))
    return sorted(out)


def bucket_edge_cases():
    """Sizes (p, q) exactly on, and 1/q either side of, every bucket edge
    b/_BUCKETS of classify's table, on q = _BUCKETS, 3*_BUCKETS and
    10**12 * _BUCKETS."""
    out = set()
    for m in (1, 3, 10 ** 12):
        q = m * _BUCKETS
        out.update((b * m + d, q) for b in range(_BUCKETS + 1) for d in (-1, 0, 1)
                   if 0 < b * m + d <= q)
    return sorted(out)


def inserted_type(st, p, q):
    """The type ``st.insert(p, q)`` gave the item: the one whose count rose,
    or the tail type."""
    before = st.s[:]
    st.insert(p, q)
    return next((i for i, (a, b) in enumerate(zip(before, st.s)) if a != b), st.table.k + 1)


class TestTypingDifferential:
    """``classify`` types a size from its bucket's base type and the
    breakpoints inside that bucket, and ``ShState.insert`` types by
    ``classify``; both agree with the Fraction breakpoints, on tables whose
    buckets hold at most one breakpoint and on one whose buckets hold several."""

    @pytest.mark.parametrize("make", [builtin_shplus, lambda: harmonic_table(7),
                                      lambda: harmonic_table(100)],
                             ids=["shplus", "h7", "h100"])
    def test_three_paths_agree(self, make):
        table = make()
        st = ShState(table)
        for p, q in floors_cases(table) + bucket_edge_cases():
            want = fraction_type(table, Fraction(p, q))
            assert table.classify(p, q) == inserted_type(st, p, q) == want, (p, q)

    def test_buckets_of_harmonic_100_hold_several_breakpoints(self):
        # 1/99 - 1/100 = 1/9900 < 1/_BUCKETS: the bucket compare is exercised
        # with more than one breakpoint, which the built-in table never needs
        rows = harmonic_table(100)._buckets
        assert max(len(inside) for _, inside in rows) > 1
        assert max(len(inside) for _, inside in builtin_shplus()._buckets) == 1

    @pytest.mark.parametrize("p,q,message", [
        (0, 1, "item size 0"), (11, 10, "item size 11/10"), (-1, 2, "item size -1/2"),
        (1, 0, "item size 1/0"),
        (10 ** 5000, 0, "item size with a 5001-digit numerator and denominator 0")],
        ids=["0/1", "11/10", "-1/2", "1/0", "10**5000/0"])
    def test_out_of_range_errors_agree(self, p, q, message):
        table = builtin_shplus()
        for insert in (table.classify, ShState(table).insert):
            with pytest.raises(ValueError) as exc:
                insert(p, q)
            assert str(exc.value) == f"{message} outside (0, 1]"

    def test_typing_long_denominators_keeps_no_memory(self):
        # the bucket table depends on the table alone: typing 64 distinct
        # 4,300-digit denominators 32 times each neither grows it nor keeps
        # anything per denominator
        table = harmonic_table(38)
        rng = random.Random(88)
        qs = [rng.randrange(10 ** 4299, 10 ** 4300) for _ in range(64)]
        sizes = [(q // rng.randrange(2, 60), q) for q in qs]
        table.classify(1, 2)  # builds the bucket table
        rows = table._buckets
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(32):
                for p, q in sizes:
                    table.classify(p, q)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert table._buckets is rows and grown < 64 * 1024, grown


class TestHarmonicTypeDifferential:
    @pytest.mark.parametrize("k", [2, 7, 38, 101])
    def test_near_every_breakpoint(self, k):
        for x in near_breakpoints(harmonic_table(k)):
            assert harmonic_type(x.numerator, x.denominator, k) == fraction_harmonic_type(x, k), x

    def test_thousand_digit_denominators(self):
        for x in long_sizes(seed=4):
            assert harmonic_type(x.numerator, x.denominator, 38) == fraction_harmonic_type(x, 38)


# denominators that share no factor, so the running denominators keep
# growing to the lcm instead of settling on one of them
COPRIME = (3, 7, 10 ** 6, 2 ** 61 - 1)


@st.composite
def mixed_size(draw):
    q = draw(st.sampled_from(COPRIME))
    if draw(st.booleans()):  # a tail item, at most 1/40
        q *= 40
        return Fraction(draw(st.integers(1, q // 40)), q)
    return Fraction(draw(st.integers(1, q)), q)


class TestIntegerSums:
    @given(st.lists(mixed_size(), min_size=1, max_size=300))
    @settings(max_examples=60, deadline=None)
    def test_bin_sums_equal_fraction_sums(self, sizes):
        table = builtin_shplus()
        st_ = Traced(ShState(table)).pack(sizes)
        blue = [Fraction(0)] * st_.cost
        red = [Fraction(0)] * st_.cost
        for tr in st_.trace:
            (red if tr.color == "red" else blue)[tr.bin_id] += tr.size
        for b in st_.bins:
            assert (b.blue_sum, b.red_sum) == (blue[b.bid], red[b.bid]), b.bid
            assert b.content_sum == blue[b.bid] + red[b.bid] <= 1
        assert st_.small_mass == sum(tr.size for tr in st_.trace if tr.color == "tiny")
        assert st_.check_feasibility() == []

    @given(st.lists(st.tuples(mixed_size(), mixed_size()), min_size=1, max_size=200))
    @settings(max_examples=40, deadline=None)
    def test_slice_fills_equal_fraction_sums(self, sides):
        rects = [Item2D(w, h) for w, h in sides]
        run = packed(TensorRun(builtin_shplus()), rects)
        assert Counter(it for sl in run.slices for it in sl.items) == Counter(rects)
        for sl in run.slices:
            fill = Fraction(sl.fill_num, sl.fill_den)
            assert fill == sum(sides_of(it)[1] for it in sl.items) <= 1, sl.sid

    @given(st.lists(mixed_size(), min_size=1, max_size=300))
    @settings(max_examples=40, deadline=None)
    def test_harmonic_tail_fill(self, sizes):
        # the tail bins, rebuilt from the ids insert returned, hold the tail
        # items; each but the last is filled above 1 - 1/38, and the weight
        # charges their integer total
        hp, bins = harmonic_bins(38, sizes)
        tail = [s for s in sizes if harmonic_type(s.numerator, s.denominator, 38) == 38]
        fills = [sum(b) for b in bins.values()
                 if harmonic_type(b[0].numerator, b[0].denominator, 38) == 38]
        assert sum(fills) == sum(tail)
        assert all(1 - Fraction(1, 38) < c <= 1 for c in fills[:-1])
        assert all(c <= 1 for c in fills[-1:])
        assert hp.total_weight == sum((w_h(s, 38) for s in sizes), Fraction(0))


def fraction_validate_geometry(run) -> list:
    """The 2D geometry audit as it was computed in Fractions, kept as the
    oracle of the integer audit: the same checks, strings and order."""
    bad = []
    per_bin: dict = {}
    for sl in run.slices:
        x, width = Fraction(sl.x_num, sl.den), Fraction(sl.w_num, sl.den)
        if not (0 <= x and x + width <= 1):
            bad.append(f"slice {sl.sid}: column outside the unit bin")
        for pos, it in enumerate(sl.items):
            if sides_of(it)[0] > width:
                bad.append(f"slice {sl.sid} item {pos}: exceeds the slice span")
        if sum((sides_of(it)[1] for it in sl.items), Fraction(0)) > 1:
            bad.append(f"slice {sl.sid}: stack outside the unit bin")
        per_bin.setdefault(sl.bin_id, []).append((x, width, sl.sid))
    for bin_id, cols in per_bin.items():
        cols.sort(key=lambda col: col[0])
        for (x, width, left), (right_x, _, right) in zip(cols, cols[1:]):
            if right_x < x + width:
                bad.append(f"bin {bin_id}: slice {left} and slice {right} overlap")
    return bad


def fraction_weight_totals(run, wset, rects) -> list:
    """Per-case 2D weight totals summed rectangle by rectangle in Fractions:
    W_H(height) * W_case(class value of the width)."""
    charges = [(w_h(h, run.hk), class_value(run, w)) for w, h in map(sides_of, rects)]
    return [sum((hw * wset.w(v, c) for hw, v in charges), Fraction(0))
            for c in range(1, wset.num_cases + 1)]


def size_files(tmp_path):
    """(empty, full): an empty size file and one of 2,000 seeded sizes on the
    10^-6 grid."""
    rng = random.Random(6)
    full, empty = tmp_path / "full.txt", tmp_path / "empty.txt"
    full.write_text("".join(f"{Fraction(rng.randint(1, 10 ** 6), 10 ** 6)}\n"
                            for _ in range(2000)))
    empty.write_text("")
    return empty, full


def quiet_pack1d(algorithm, path):
    """``pack1d --verify`` on a size file, its report discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["pack1d", "--algorithm", algorithm, "--verify",
                     "--input", str(path)]) == 0


RECTS = st.lists(st.tuples(mixed_size(), mixed_size()), min_size=1, max_size=150)


class Test2DDifferential:
    @given(RECTS, st.sampled_from(["hxb", "bxh"]), st.data())
    @settings(max_examples=40, deadline=None)
    def test_audit_equals_fraction_oracle_under_mutations(self, sides, orientation, data):
        # the three mutations of the pair-check test, applied one after another:
        # shift a column, widen a rectangle, heighten a rectangle
        run = packed(TensorRun(builtin_shplus(), orientation, Fraction(1, 100)),
                     [Item2D(w, h) for w, h in sides])
        assert validate_geometry(run) == fraction_validate_geometry(run) == []
        for _ in range(data.draw(st.integers(1, 6))):
            kind = data.draw(st.integers(0, 2))
            sl = data.draw(st.sampled_from(run.slices))
            grow = Fraction(data.draw(st.integers(1, 1000)), 5000)
            if kind == 0:
                x = Fraction(sl.x_num, sl.den)
                move_column(sl, x + grow if data.draw(st.booleans()) else x - grow)
            else:
                pos = data.draw(st.integers(0, len(sl.items) - 1))
                w, h = sides_of(sl.items[pos])
                w, h = (w + grow, h) if kind == 1 else (w, h + 5 * grow)
                sl.items[pos] = Item2D(min(w, Fraction(1)), min(h, Fraction(1)))
            assert validate_geometry(run) == fraction_validate_geometry(run)

    @given(RECTS, st.sampled_from(["hxb", "bxh"]))
    @settings(max_examples=40, deadline=None)
    def test_weight_totals_equal_per_rectangle_sum(self, sides, orientation):
        # tail items are tiny widths and tail heights alike; a bxh run is
        # charged for each rectangle turned
        table = builtin_shplus()
        wset = WeightFunctionSet(table)
        rects = [Item2D(w, h) for w, h in sides]
        run = packed(TensorRun(table, orientation, Fraction(1, 100)), rects)
        charged = rects if orientation == "hxb" else [Item2D(h, w) for w, h in sides]
        assert run.weight_bounds(wset)[1:] == fraction_weight_totals(run, wset, charged)

    def test_audit_and_weight_totals_build_no_fraction_per_slice(self, table, wset):
        # a tenth of the sides thin, down to 1e-6, on varying denominators
        rng = random.Random(5)

        def side():
            if rng.random() < 0.1:
                return Fraction(rng.randint(1, 1000), 10 ** rng.randint(4, 6))
            return Fraction(rng.randint(1, 10 ** 6), 10 ** 6)

        _, hxb, bxh = tensor_cost([Item2D(side(), side()) for _ in range(2000)], table)
        for run in (hxb, bxh):
            assert len(run.slices) > 1000
            assert fraction_builds(validate_geometry, run) == 0
            # one Fraction per width type here, and case_totals' own
            assert fraction_builds(run.weight_bounds, wset) <= 3 * (table.k + 2)


class TestAuditCatchesEachViolation:
    """One bin edited per violation kind; the audit names it by its message."""

    @pytest.fixture
    def state(self, table):
        # bins 0-2: two blue type-9 items each; bin 3: the red (?,9) item;
        # bin 4: a Next-Fit bin
        st_ = ShState(table).pack([Fraction("0.41")] * 7 + [Fraction(1, 100)])
        assert st_.check_feasibility() == []
        assert [(b.blue_type, b.red_type) for b in st_.bins] == [
            (9, None), (9, None), (9, None), (None, 9), (None, None)]
        return st_

    def test_content_over_one(self, state):
        nf = state.bins[4]
        nf.blue_num, nf.blue_den = 7, 7  # a full bin passes
        assert state.check_feasibility() == []
        nf.blue_num, nf.blue_den = 101, 100
        assert state.check_feasibility() == ["bin 4: content 101/100 > 1"]

    def test_long_content_is_named_by_its_digits(self, table):
        # a content of more digits than str() writes is named by its digit
        # counts: the audit returns the violation, it does not raise
        st_ = ShState(table)
        for token in ("1e-4299", "1/1001", "1/1003"):
            st_.insert(*parse_pair(token))
        nf, = st_.bins
        assert (nf.blue_type, nf.red_type) == (None, None) and st_.check_feasibility() == []
        nf.blue_num = nf.blue_den + 1
        assert st_.check_feasibility() == [
            "bin 0: content with a 4306-digit numerator and a 4306-digit denominator > 1"]

    def test_blue_mass_over_beta_t(self, state):
        b = state.bins[1]  # beta*t = 2 * 0.42
        b.blue_num, b.blue_den = 84 * 3, 100 * 3  # at the cap passes
        assert state.check_feasibility() == []
        b.blue_num, b.blue_den = 841, 1000
        assert state.check_feasibility() == ["bin 1: blue mass over beta*t for type 9"]

    def test_red_mass_over_gamma_t(self, state):
        b = state.bins[3]  # gamma*t = 1 * 0.42
        b.red_num, b.red_den = 21, 50  # at the cap passes
        assert state.check_feasibility() == []
        b.red_num, b.red_den = 421, 1000
        assert state.check_feasibility() == ["bin 3: red mass over gamma*t for type 9"]

    def test_counts_over_beta_and_gamma(self, state):
        state.bins[0].blue_count = 3
        state.bins[3].red_count = 2
        assert state.check_feasibility() == ["bin 0: 3 blues > beta[9]",
                                             "bin 3: 2 reds > gamma[9]"]

    def test_red_count_law(self, state):
        state.e[9] += 1
        assert state.check_feasibility() == ["type 9: red-count law broken"]

    def test_red_load_beyond_reserved_space(self, state, table):
        b = state.bins[3]  # a type-2 blue keeps Delta[1] = 0.294 for reds
        b.blue_type, b.blue_count = 2, 1
        b.blue_num, b.blue_den = 1, 2
        assert table.phi[2] == 1
        assert state.check_feasibility() == [
            "bin 3: red load does not fit reserved space"]


class TestPairPath:
    @pytest.mark.parametrize("digits", [100, 1000])
    def test_exact_add_equals_fraction_sum(self, digits):
        # long denominators, and pairs not in lowest terms
        rng = random.Random(digits)
        num, den, total = 0, 1, Fraction(0)
        for step in range(60):
            q = rng.randrange(10 ** (digits - 1), 10 ** digits)
            p, scale = rng.randrange(1, q), (1, 6, 10 ** 6)[step % 3]
            num, den = exact_add(num, den, p * scale, q * scale)
            total += Fraction(p, q)
            assert Fraction(num, den) == total, step

    def test_pack1d_builds_no_fraction_per_item(self, tmp_path):
        # building the table and the weights takes a fixed few hundred
        # Fractions, for SH+ only; the 2,000 sizes of a file add fewer than
        # one per 10 items
        empty, full = size_files(tmp_path)
        for algorithm in ("sh+", "harmonic"):
            fixed, total = (fraction_builds(quiet_pack1d, algorithm, path)
                            for path in (empty, full))
            assert total - fixed < 2000 // 10, (algorithm, fixed, total)
            assert algorithm == "sh+" or fixed < 100, fixed

    def test_pack1d_sh_compares_no_fraction_per_item(self, tmp_path):
        # the conversion scans are planned once per run on integers, and the
        # audit's caps are integers: the 2,000 sizes add no Fraction comparison
        # to what the table, the weights and the report of an empty file take
        empty, full = size_files(tmp_path)
        fixed, total = (fraction_comparisons(quiet_pack1d, "sh+", path)
                        for path in (empty, full))
        assert total == fixed, (fixed, total)

    def test_pack2d_builds_no_fraction_per_rectangle(self, tmp_path):
        # the 2,000 rectangles of a file, a tenth with a thin side, add fewer
        # than one Fraction per 10 rectangles to what an empty file takes
        rng = random.Random(7)

        def side():
            if rng.random() < 0.1:
                return f"{rng.randint(1, 1000)}/{10 ** rng.randint(4, 6)}"
            return f"{rng.randint(1, 10 ** 6)}/{10 ** 6}"

        full, empty = tmp_path / "full.txt", tmp_path / "empty.txt"
        full.write_text("".join(f"{side()} {side()}\n" for _ in range(2000)))
        empty.write_text("")

        def quiet_pack2d(path):
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["pack2d", "--verify", "--input", str(path)]) == 0

        fixed, total = (fraction_builds(quiet_pack2d, path) for path in (empty, full))
        assert total - fixed < 2000 // 10, (fixed, total)
