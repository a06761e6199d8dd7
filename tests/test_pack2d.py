import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from harmonicpack.harmonic import w_h
from harmonicpack.pack2d import (Item2D, Slice, TensorRun, TinyGrid, tensor_cost,
                                 validate_geometry, w2d)

from conftest import grid_sizes


def grid_items(rng, n):
    a = grid_sizes(rng, n)
    b = grid_sizes(rng, n)
    return [Item2D(w, h) for w, h in zip(a, b)]


_WSET_CACHE = []


def _shared_wset():
    # hypothesis disallows function-scoped fixtures; share one instance
    if not _WSET_CACHE:
        from harmonicpack.params import builtin_shplus
        from harmonicpack.weighting import WeightFunctionSet
        _WSET_CACHE.append(WeightFunctionSet(builtin_shplus()))
    return _WSET_CACHE[0]


def _reference_ladder(eps, delta):
    """The ladder's reference form: exact products cut to 18 significant
    digits at the decade a float logarithm picks, down to 1e-300."""
    v, ratio = eps, 1 - delta
    while True:
        yield v
        nxt = v * ratio
        f = float(nxt)
        if f < 1e-300:
            return
        q = 10 ** (17 - math.floor(math.log10(f)))
        v = Fraction(int(nxt * q), q)


class TestWidthClasses:
    def test_large_width_rounds_to_breakpoint(self, table):
        run = TensorRun(table)
        key, val = run.width_class(Fraction("0.7"))
        assert key == ("t", 2) and val == Fraction("0.706")

    def test_breakpoint_width_is_its_own_class(self, table):
        run = TensorRun(table)
        key, val = run.width_class(Fraction("0.5"))
        assert key == ("t", 8) and val == Fraction("0.5")

    def test_tiny_class_defining_inequality(self, table):
        grid = TinyGrid(table.eps, Fraction(1, 10000))
        for w in (Fraction("0.001"), Fraction("0.02"), Fraction(1, 10 ** 6),
                  Fraction(1, 38), Fraction("0.0002"), Fraction(1, 10 ** 8)):
            m = grid.class_of(w)
            assert grid.value(m + 1) < w <= grid.value(m)

    def test_tiny_class_matches_log_estimate(self, table):
        # the class index sits in the integer neighbourhood of
        # ln(w/eps)/ln(1-d)
        grid = TinyGrid(table.eps, Fraction(1, 10000))
        w = Fraction("0.001")
        est = math.log(float(w / table.eps)) / math.log1p(-1e-4)
        assert abs(grid.class_of(w) - est) <= 2

    def test_grid_matches_reference_ladder_at_full_depth(self, table):
        # every step of the ladder a width of 1e-6 reaches at the default d
        grid = TinyGrid(table.eps, Fraction(1, 10000))
        for m, v in enumerate(_reference_ladder(table.eps, Fraction(1, 10000))):
            if m > 101774:
                break
            assert grid.value(m) == v, m
        assert grid.class_of(Fraction(1, 10 ** 6)) == 101774

    @pytest.mark.parametrize("delta", [Fraction(1, 100), Fraction(1, 1000),
                                       Fraction(1, 3)])
    def test_grid_matches_reference_ladder(self, table, delta):
        grid = TinyGrid(table.eps, delta)
        for m, v in enumerate(_reference_ladder(table.eps, delta)):
            assert grid.value(m) == v, m
        assert m > 1500  # the ladder reached 1e-300

    def test_depth_floor_names_the_width(self, table):
        grid = TinyGrid(table.eps, Fraction(1, 10000))
        w = Fraction(1, 10 ** 400)  # class 9.2 million at this grid
        with pytest.raises(ValueError, match=f"width {w} lies below"):
            grid.class_of(w)
        m = grid.class_of(grid.value(999_999))
        assert m == 999_999 and grid.value(m + 1) < grid.value(m)

    def test_thousand_digit_widths_classify(self, table):
        # far below float range, on a coarse grid the ladder's powers of ten
        # run to thousands of digits
        grid = TinyGrid(table.eps, Fraction(49, 100))
        for w in (Fraction(1, 10 ** 3000), Fraction(7, 3 * 10 ** 5000)):
            m = grid.class_of(w)
            assert grid.value(m + 1) < w <= grid.value(m)

    def test_class_exact_at_decade_edges(self, table):
        # class_of compares decimal magnitudes first and the exact product
        # only within one decade.  Widths on and just off ladder values, next
        # to the ends of its 1024-step blocks, and at the digit edges of their
        # numerator and denominator keep the defining inequality, each on a
        # fresh grid that grows only to the first block end below the width
        d = Fraction(49, 100)
        ref = TinyGrid(table.eps, d)
        nudge = Fraction(1, 10 ** 40)
        widths = []
        for m in [*range(1, 60), *range(1020, 1030), *range(2044, 2054)]:
            v = ref.value(m)
            widths += [v, v * (1 - nudge), v * (1 + nudge)]
        for k in range(2, 40):
            widths += [Fraction(10 ** k - 1, 10 ** (2 * k)), Fraction(1, 10 ** k - 1),
                       Fraction(10 ** k + 1, 10 ** (2 * k))]
        for w in widths:
            grid = TinyGrid(table.eps, d)
            m = grid.class_of(w)
            assert len(grid._num) - 1 == 1 + 1024 * -(-m // 1024), w
            assert grid.value(m + 1) < w <= grid.value(m), w

    def test_grid_strictly_decreasing(self, table):
        grid = TinyGrid(table.eps, Fraction(1, 10000))
        vals = [grid.value(m) for m in range(0, 2000, 97)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert grid.value(0) == table.eps


class TestSlicePacking:
    def test_big_square_pair(self, table):
        # width class 0.706 is 1D type 2 (beta 1): each slice fills a bin;
        # heights 0.7 close a slice after one item
        run = TensorRun(table)
        item = Item2D(Fraction("0.7"), Fraction("0.7"))
        s1 = run.insert(item)
        s2 = run.insert(item)
        assert s1.width == Fraction("0.706") and run.slices == [s1, s2]
        assert s1.sid != s2.sid
        assert run.cost == 2 and s1.items == s2.items == [item]

    def test_flat_items_stack_in_one_slice(self, table):
        run = TensorRun(table)
        used = [run.insert(Item2D(Fraction("0.5"), Fraction(1, 100)))
                for _ in range(101)]
        assert len({sl.sid for sl in used[:100]}) == 1
        assert used[0].count == 100 and used[0].y_fill == 1
        assert used[100].sid != used[0].sid
        assert run.cost == 1  # two slices of width 0.5 share one bin

    def test_slice_accounting(self, table):
        # slices of class t_i == 1D type-i items seen by the inner packer
        run = TensorRun(table)
        for it in grid_items(random.Random(3), 2000):
            run.insert(it)
        per_type = [0] * (table.k + 2)
        for sl in run.slices:
            per_type[table.classify(sl.width)] += 1
        for i in range(1, table.k + 1):
            assert per_type[i] == run.inner.s[i]
        assert per_type[table.k + 1] == run.inner.small_count

    @pytest.mark.parametrize("orientation", ["hxb", "bxh"])
    def test_weight_bounds_sum_item_weights(self, table, wset, orientation):
        # a quarter of the widths and heights are tiny; prefixes leave
        # slices open
        rng = random.Random(21)

        def side():
            if rng.random() < 0.25:
                return Fraction(rng.randint(1, 1000), 38 * 10 ** rng.randint(3, 5))
            return Fraction(rng.randint(1, 10 ** 6), 10 ** 6)

        items = [Item2D(side(), side()) for _ in range(600)]
        if orientation == "bxh":
            items = [it.transposed for it in items]
        run = TensorRun(table, orientation, Fraction(1, 100))
        charges = []  # (W_H(h), class value of w) per rectangle
        for n, it in enumerate(items, start=1):
            run.insert(it)
            charges.append((w_h(it.h, run.hk), run.width_class(it.w)[1]))
            if n in (1, 33, 300, 600):
                totals = run.weight_bounds(wset)
                for c in range(1, wset.num_cases + 1):
                    assert totals[c] == sum((hw * wset.w(v, c) for hw, v in charges),
                                            Fraction(0)), (n, c)

    def test_transpose_run_equals_swapped_items(self, table):
        items = grid_items(random.Random(8), 1500)
        a = TensorRun(table, "hxb").pack([it.transposed for it in items])
        b = TensorRun(table, "bxh").pack([it.transposed for it in items])
        assert a.cost == b.cost  # orientation tag does not change packing

    def test_rejects_bad_rectangle(self):
        with pytest.raises(ValueError):
            Item2D(Fraction(0), Fraction(1, 2))


class TestGeometry:
    @pytest.mark.parametrize("seed,n", [(1, 1500), (2, 4000)])
    def test_algorithm_output_validates(self, table, seed, n):
        run = TensorRun(table)
        for it in grid_items(random.Random(seed), n):
            run.insert(it)
        assert validate_geometry(run) == []

    def test_hand_built_overlap_reported(self, table):
        run = TensorRun(table)
        # heights 0.7 close a slice after one item: two slices, one bin
        a = run.insert(Item2D(Fraction("0.3"), Fraction("0.7")))
        b = run.insert(Item2D(Fraction("0.3"), Fraction("0.7")))
        assert a is not b and a.bin_id == b.bin_id
        assert validate_geometry(run) == []
        b.x = a.x  # second slice forced onto the first one's spot
        assert any("overlap" in v for v in validate_geometry(run))

    def test_item_wider_than_slice_reported(self, table):
        run = TensorRun(table)
        sl = run.insert(Item2D(Fraction("0.3"), Fraction("0.4")))
        sl.items[0] = Item2D(Fraction("0.9"), Fraction("0.4"))
        assert any("slice span" in v for v in validate_geometry(run))

    def test_out_of_bin_reported(self, table):
        run = TensorRun(table)
        sl = run.insert(Item2D(Fraction("0.3"), Fraction("0.4")))
        # stacked on top of the first item, this one reaches y = 1.1
        sl.items.append(Item2D(Fraction("0.3"), Fraction("0.7")))
        assert any("unit bin" in v for v in validate_geometry(run))

    def test_column_outside_bin_reported(self, table):
        # the rectangle stays inside the bin, but its column does not
        run = TensorRun(table)
        sl = run.insert(Item2D(Fraction("0.3"), Fraction("0.4")))
        assert sl.width == Fraction(1, 3)
        sl.x = Fraction(2, 3) + Fraction(1, 60)
        assert sl.x + sl.items[0].w < 1 < sl.x + sl.width
        assert any("unit bin" in v for v in validate_geometry(run))

    def test_overlapping_columns_reported(self, table):
        # spans [0, 3/10] and [1/5, 1/2] overlap; their rectangles [0, 1/10]
        # and [1/5, 1/2] across miss each other
        run = TensorRun(table)
        for sid, x, w in ((0, Fraction(0), Fraction(1, 10)),
                          (1, Fraction(1, 5), Fraction(3, 10))):
            run.slices.append(Slice(sid=sid, width=Fraction(3, 10), bin_id=0, x=x,
                                    width_type=1, height_type=1,
                                    items=[Item2D(w, Fraction(1, 2))]))
        assert any("overlap" in v for v in validate_geometry(run))


def _pair_violations(run) -> list:
    """Brute force over rectangle pairs: each rectangle at its slice's x and
    the heights stacked below it, checked against the unit bin and against
    every other rectangle of its bin for positive-area overlap."""
    bad, per_bin = [], {}
    for sl in run.slices:
        y = Fraction(0)
        for it in sl.items:
            r = (sl.x, y, sl.x + it.w, y + it.h)
            if not (0 <= r[0] and r[2] <= 1 and r[3] <= 1):
                bad.append(("outside", r))
            per_bin.setdefault(sl.bin_id, []).append(r)
            y += it.h
    for rects in per_bin.values():
        for i, a in enumerate(rects):
            for b in rects[:i]:
                if a[0] < b[2] and b[0] < a[2] and a[1] < b[3] and b[1] < a[3]:
                    bad.append(("overlap", a, b))
    return bad


class TestGeometryNeverLooser:
    """validate_geometry checks slice columns; wherever a brute-force check
    on rectangle pairs finds a violation, the column audit finds one too."""

    @pytest.mark.parametrize("seed", range(6))
    def test_audit_catches_every_pair_violation(self, table, seed):
        rng = random.Random(seed)

        def side():  # a fifth thin, down to 1e-6
            if rng.random() < 0.2:
                return Fraction(rng.randint(1, 1000), 10 ** rng.randint(4, 6))
            return Fraction(rng.randint(1, 10 ** 6), 10 ** 6)

        run = TensorRun(table, "hxb", Fraction(1, 100))
        run.pack([Item2D(side(), side()) for _ in range(300)])
        assert validate_geometry(run) == [] and _pair_violations(run) == []
        stacks = [sl for sl in run.slices if sl.count > 1]
        caught = [0, 0, 0]
        for _ in range(60):
            kind, grow = rng.randrange(3), Fraction(rng.randint(1, 1000), 5000)
            sl = rng.choice(stacks if kind == 2 else run.slices)
            x, items = sl.x, list(sl.items)
            if kind == 0:  # shift the slice by up to 1/5 either way
                sl.x += grow if rng.random() < 0.5 else -grow
            else:  # widen by up to 1/5, or heighten by up to 1, one rectangle
                pos = rng.randrange(len(items))
                w, h = items[pos].w, items[pos].h
                w, h = (w + grow, h) if kind == 1 else (w, h + 5 * grow)
                sl.items[pos] = Item2D(min(w, Fraction(1)), min(h, Fraction(1)))
            if _pair_violations(run):
                caught[kind] += 1
                assert validate_geometry(run), (seed, sl.sid)
            sl.x, sl.items = x, items
        assert validate_geometry(run) == []
        assert min(caught) >= 2, caught  # every kind of mutation breaks some runs


class TestCombinedWeight:
    def test_unit_weight_pair(self, wset):
        assert w2d(1, 1, Fraction("0.7"), Fraction("0.7"), wset) == 1

    def test_tail_pair(self, wset):
        want = Fraction(38, 37) ** 2 * Fraction(1, 10 ** 4)
        for i, j in ((1, 1), (3, 5), (7, 7)):
            assert w2d(i, j, Fraction(1, 100), Fraction(1, 100), wset) == want

    @given(st.integers(1, 10 ** 6), st.integers(1, 10 ** 6),
           st.integers(1, 7), st.integers(1, 7))
    @settings(max_examples=200, deadline=None)
    def test_transpose_symmetry(self, xn, yn, i, j):
        wset = _shared_wset()
        x, y = Fraction(xn, 10 ** 6), Fraction(yn, 10 ** 6)
        assert w2d(i, j, x, y, wset) == w2d(j, i, y, x, wset)


class TestTensorCost:
    def test_empty(self, table):
        tc, _, _ = tensor_cost([], table)
        assert (tc.cost_hxb, tc.cost_bxh, tc.avg) == (0, 0, 0)

    def test_unit_squares(self, table):
        items = [Item2D(Fraction(1), Fraction(1))] * 100
        tc, _, _ = tensor_cost(items, table)
        assert (tc.cost_hxb, tc.cost_bxh, tc.avg) == (100, 100, 100)

    def test_known_opt_tiling(self, table):
        # 4 quadrant squares tile one bin; widths 1/2 are 1D type 8
        items = [Item2D(Fraction(1, 2), Fraction(1, 2))] * 40
        tc, _, _ = tensor_cost(items, table)
        assert tc.avg <= 3 * 10  # coarse sanity vs opt = 10

    @pytest.mark.parametrize("seed,n", [(4, 1000), (5, 2500)])
    def test_average_weight_inequality(self, table, wset, seed, n):
        delta = Fraction(1, 10000)
        items = grid_items(random.Random(seed), n)
        tc, hxb, bxh = tensor_cost(items, table, delta)
        rhs = (hxb.max_weight_bound(wset) + bxh.max_weight_bound(wset)) \
            / (2 * (1 - delta))
        assert tc.avg <= rhs + 300
