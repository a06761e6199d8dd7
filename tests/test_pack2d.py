import bisect
import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from harmonicpack import pack2d
from harmonicpack.boundcert import build_f
from harmonicpack.generators import rectangle
from harmonicpack.harmonic import w_h
from harmonicpack.pack2d import (_MAX_DEPTH, Item2D, Slice, TensorRun, TinyGrid,
                                 tensor_cost, validate_geometry, w2d)
from harmonicpack.params import ParamTable
from harmonicpack.weighting import WeightFunctionSet

from conftest import (class_value, grid_sizes, harmonic_table, move_column, packed,
                      sides_of)
from test_superharmonic import OracleShState


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


def value(grid, m):
    """The grid's class value m as a Fraction."""
    return Fraction(*grid.value(m))


def class_of(grid, w):
    return grid.class_of(w.numerator, w.denominator)


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
        key, val = run.width_class(7, 10)
        assert key == 2 and val == (353, 500)

    def test_breakpoint_width_is_its_own_class(self, table):
        run = TensorRun(table)
        key, val = run.width_class(5, 10)
        assert key == 8 and val == (1, 2)

    @pytest.mark.parametrize("delta", [Fraction(1, 100), Fraction(1, 10000),
                                       Fraction(49, 100)])
    @pytest.mark.parametrize("name", ["builtin", "harmonic7"])
    def test_sh_type_of_a_class_is_its_classified_type(self, table, name, delta):
        # a slice that opens hands the SH+ run the type c of a breakpoint class
        # and k+1 of a tiny one, and the run skips classify: each must be the
        # type classify gives the class value, which is its own class
        table = table if name == "builtin" else harmonic_table(7)
        run, k = TensorRun(table, "hxb", delta), table.k
        for c in range(1, k + 1):
            v = table.t[c].as_integer_ratio()
            assert run.width_class(*v) == (c, v) and table.classify(*v) == c
        for m in [0, 1, 2, *random.Random(4).sample(range(3, 20000), 40)]:
            v = run.grid.value(m)
            assert run.width_class(*v) == (k + 1 + m, v) and table.classify(*v) == k + 1

    def test_tiny_class_defining_inequality(self, table):
        grid = TinyGrid(table.eps, Fraction(1, 10000))
        for w in (Fraction("0.001"), Fraction("0.02"), Fraction(1, 10 ** 6),
                  Fraction(1, 38), Fraction("0.0002"), Fraction(1, 10 ** 8)):
            m = class_of(grid, w)
            assert value(grid, m + 1) < w <= value(grid, m)
            assert grid.class_of(3 * w.numerator, 3 * w.denominator) == m

    def test_tiny_class_matches_log_estimate(self, table):
        # the class index sits in the integer neighbourhood of
        # ln(w/eps)/ln(1-d)
        grid = TinyGrid(table.eps, Fraction(1, 10000))
        w = Fraction("0.001")
        est = math.log(float(w / table.eps)) / math.log1p(-1e-4)
        assert abs(class_of(grid, w) - est) <= 2

    def test_grid_matches_reference_ladder_at_full_depth(self, table):
        # every step of the ladder a width of 1e-6 reaches at the default d
        grid = TinyGrid(table.eps, Fraction(1, 10000))
        for m, v in enumerate(_reference_ladder(table.eps, Fraction(1, 10000))):
            if m > 101774:
                break
            assert value(grid, m) == v, m
        assert class_of(grid, Fraction(1, 10 ** 6)) == 101774

    @pytest.mark.parametrize("delta", [Fraction(1, 100), Fraction(1, 1000),
                                       Fraction(1, 3)])
    def test_grid_matches_reference_ladder(self, table, delta):
        grid = TinyGrid(table.eps, delta)
        for m, v in enumerate(_reference_ladder(table.eps, delta)):
            assert value(grid, m) == v, m
        assert m > 1500  # the ladder reached 1e-300

    def test_depth_floor_names_the_width(self, table):
        grid = TinyGrid(table.eps, Fraction(1, 10000))
        w = Fraction(1, 10 ** 400)  # class 9.2 million at this grid
        with pytest.raises(ValueError, match="width with a 1-digit numerator and a "
                                             "401-digit denominator lies below the tiny "
                                             "grid's depth floor of 1000000 classes"):
            class_of(grid, w)
        assert len(grid._num) == 2  # rejected from its digits: no ladder grown
        m = grid.class_of(*grid.value(999_999))  # an unreduced pair
        assert m == 999_999 and value(grid, m + 1) < value(grid, m)

    @pytest.mark.parametrize("delta", [Fraction(1, 10 ** 6), Fraction(1, 10000),
                                       Fraction(1, 3), Fraction(49, 100)])
    def test_digit_floor_lies_below_the_deepest_step(self, table, delta):
        # a width is rejected from its digit counts only where the full
        # ladder would reject it too: 10**-floor <= value(_MAX_DEPTH)
        grid = TinyGrid(table.eps, delta)
        grid._grow(_MAX_DEPTH)
        assert grid._num[-1] * 10 ** grid._floor >= grid.value(_MAX_DEPTH)[1]
        fresh = TinyGrid(table.eps, delta)
        with pytest.raises(ValueError, match="depth floor"):
            class_of(fresh, Fraction(1, 10 ** (grid._floor + 1)))  # dd - dn = floor + 1
        assert len(fresh._num) == 2

    def test_coarse_grid_floor_rejects_before_walking(self, table):
        # at d = 49/100 the deepest step is near 10**-292431; the width
        # 1e-300000 lies below it and is rejected from its digits, while the
        # ladder still reaches its last class
        grid = TinyGrid(table.eps, Fraction(49, 100))
        with pytest.raises(ValueError, match="depth floor"):
            class_of(grid, Fraction(1, 10 ** 300000))
        assert len(grid._num) == 2
        m = grid.class_of(*grid.value(999_999))  # an unreduced pair
        assert m == 999_999 and value(grid, m + 1) < value(grid, m)

    def test_thousand_digit_widths_classify(self, table):
        # far below float range, on a coarse grid the ladder's powers of ten
        # run to thousands of digits
        grid = TinyGrid(table.eps, Fraction(49, 100))
        for w in (Fraction(1, 10 ** 3000), Fraction(7, 3 * 10 ** 5000)):
            m = class_of(grid, w)
            assert value(grid, m + 1) < w <= value(grid, m)

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
            v = value(ref, m)
            widths += [v, v * (1 - nudge), v * (1 + nudge)]
        for k in range(2, 40):
            widths += [Fraction(10 ** k - 1, 10 ** (2 * k)), Fraction(1, 10 ** k - 1),
                       Fraction(10 ** k + 1, 10 ** (2 * k))]
        for w in widths:
            grid = TinyGrid(table.eps, d)
            m = class_of(grid, w)
            assert len(grid._num) - 1 == 1 + 1024 * -(-m // 1024), w
            assert value(grid, m + 1) < w <= value(grid, m), w

    def test_full_ladder_allocates_under_1_mb(self, table):
        # the 101,775 steps down to 1e-6 at the default d hold one 18-digit
        # numerator each in 8 bytes of an int64 array, about 0.85 MB; the
        # exponent is stored once per power of ten
        tracemalloc.start()
        try:
            grid = TinyGrid(table.eps, Fraction(1, 10000))
            assert grid.class_of(1, 10 ** 6) == 101774
            size, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert size < 10 ** 6, size

    @pytest.mark.parametrize("delta", [Fraction(1, 10000), Fraction(1, 100),
                                       Fraction(49, 100), Fraction(1, 3)])
    def test_uneven_growth_matches_one_call(self, table, delta):
        # _grow cuts each block at its first step below 10^17: however the
        # ladder is grown, its steps and run starts are those of one call and
        # of the reference.  Past the third digit drop, or down to 1e-300
        whole = TinyGrid(table.eps, delta)
        whole._grow(60_000)
        ref = list(itertools.islice(_reference_ladder(table.eps, delta),
                                    whole._starts[3] + 1100))
        depth = len(ref) - 1
        assert [value(whole, m) for m in range(depth + 1)] == ref
        drop1, drop2 = whole._starts[1:3]
        rng = random.Random(35)
        increments = [1, 1023, 1024, 1025] + [rng.randint(1, 3000) for _ in range(60)]
        ends = {
            "uneven": list(itertools.accumulate(increments)),
            # a block that starts on a digit drop, then one that ends on one
            "drop-aligned": [drop1 - 1, drop2],
        }
        for name, marks in ends.items():
            grid = TinyGrid(table.eps, delta)
            for m in [*marks, depth]:
                grid._grow(min(m, depth))
            assert grid._num == whole._num[:depth + 1], name
            assert grid._starts == [s for s in whole._starts if s <= depth], name
            assert all(value(grid, m) == v for m, v in enumerate(ref)), name

    def test_grid_strictly_decreasing(self, table):
        grid = TinyGrid(table.eps, Fraction(1, 10000))
        vals = [value(grid, m) for m in range(0, 2000, 97)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert value(grid, 0) == table.eps


class TestSlicePacking:
    def test_big_square_pair(self, table):
        # width class 0.706 is 1D type 2 (beta 1): each slice fills a bin;
        # heights 0.7 close a slice after one item
        run = TensorRun(table)
        item = Item2D(Fraction("0.7"), Fraction("0.7"))
        s1 = run.insert(item)
        s2 = run.insert(item)
        assert Fraction(s1.w_num, s1.den) == Fraction("0.706") and run.slices == [s1, s2]
        assert s1.sid != s2.sid
        assert run.cost == 2 and s1.items == s2.items == [item]

    def test_flat_items_stack_in_one_slice(self, table):
        run = TensorRun(table)
        used = [run.insert(Item2D(Fraction("0.5"), Fraction(1, 100)))
                for _ in range(101)]
        assert len({sl.sid for sl in used[:100]}) == 1
        assert len(used[0].items) == 100 and used[0].fill_num == used[0].fill_den
        assert used[100].sid != used[0].sid
        assert run.cost == 1  # two slices of width 0.5 share one bin

    def test_slice_accounting(self, table):
        # slices of class t_i == 1D type-i items seen by the inner packer
        run = TensorRun(table)
        for it in grid_items(random.Random(3), 2000):
            run.insert(it)
        per_type = [0] * (table.k + 2)
        for sl in run.slices:
            per_type[table.classify(sl.w_num, sl.den)] += 1
        for i in range(1, table.k + 1):
            assert per_type[i] == run.inner.s[i]
        assert per_type[table.k + 1] == sum(
            b.blue_count for b in run.inner.bins
            if b.blue_type is None and b.red_type is None)  # the Next-Fit bins

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
        run = TensorRun(table, orientation, Fraction(1, 100))
        charges = []  # (W_H(stacked side), class value of the sliced side)
        for n, it in enumerate(items, start=1):
            run.insert(it)
            w, h = sides_of(it) if orientation == "hxb" else sides_of(it)[::-1]
            charges.append((w_h(h, run.hk), class_value(run, w)))
            if n in (1, 33, 300, 600):
                totals = run.weight_bounds(wset)
                for c in range(1, wset.num_cases + 1):
                    assert totals[c] == sum((hw * wset.w(v, c) for hw, v in charges),
                                            Fraction(0)), (n, c)

    def test_bxh_on_transposed_tuples_equals_swapped_items(self, table):
        # a bxh run turns each tuple without re-reading its sides; it equals
        # an hxb run fed the rectangles built from the swapped sides
        rng = random.Random(9)

        def side():
            if rng.random() < 0.2:
                return Fraction(rng.randint(1, 1000), 10 ** rng.randint(4, 6))
            return Fraction(rng.randint(1, 10 ** 6), 10 ** 6)

        items = [Item2D(side(), side()) for _ in range(1500)]
        run = packed(TensorRun(table, "bxh"), items)
        ref = packed(TensorRun(table, "hxb"), [Item2D(*sides_of(it)[::-1]) for it in items])
        assert len(run.slices) > 100 and run.slices == ref.slices
        assert run.cost == ref.cost

    def test_transpose_run_equals_swapped_items(self, table):
        # the bxh run does the turning: fed the turned tuples, hxb packs alike
        items = grid_items(random.Random(8), 1500)
        a = packed(TensorRun(table, "hxb"), [(hp, hq, wp, wq) for wp, wq, hp, hq in items])
        b = packed(TensorRun(table, "bxh"), items)
        assert a.cost == b.cost and a.slices == b.slices

    def test_rejects_bad_rectangle(self):
        with pytest.raises(ValueError):
            Item2D(Fraction(0), Fraction(1, 2))


_ORACLE_LADDERS: dict = {}  # (eps, d) -> (reference ladder values so far, the rest)


def _reference_step(eps, delta, w):
    """(m, L[m]) for the m with L[m+1] < w <= L[m] on the reference ladder L
    of (eps, d)."""
    values, rest = _ORACLE_LADDERS.setdefault((eps, delta),
                                              ([], _reference_ladder(eps, delta)))
    while not values or values[-1] >= w:
        values.append(next(rest))
    m = bisect.bisect_right(values, -w, key=lambda v: -v) - 1
    return m, values[m]


class OracleTensorRun:
    """The slice packer as the pack2d docstring states it, on Fractions.  A
    width above eps rounds up to the breakpoint t[i] of its interval, and a
    smaller one to its step of the reference ladder.  Each (width class, height
    type) keeps one open slice: it takes ht items of height type ht < 1/eps,
    and tail heights while their stack stays at most 1.  A new slice goes to
    OracleShState as an item of its class value; blue and tiny slices sit left
    to right from x = 0, red ones leftwards from x = 1.  A "bxh" run swaps
    each rectangle's sides.  Nothing is inherited from TensorRun."""

    def __init__(self, table, orientation, delta):
        self.table, self.delta, self.turn = table, delta, orientation == "bxh"
        self.hk = int(1 / table.eps)
        self.sh = OracleShState(table, keep_trace=True)
        self.open = {}  # (width class, height type) -> slice
        self.slices = []  # [sid, bin id, x, width, [(w, h), ...]]

    def width_class(self, w):
        t, k = self.table.t, self.table.k
        if w > t[k + 1]:
            i = next(i for i in range(k, 0, -1) if w <= t[i])
            return ("t", i), t[i]
        m, v = _reference_step(t[k + 1], self.delta, w)
        return ("e", m), v

    def insert(self, w, h):
        """(sid, bin id, x, width) of the slice the rectangle w x h joins."""
        if self.turn:
            w, h = h, w
        key, v = self.width_class(w)
        ht = min(int(1 / h), self.hk)  # 1/(ht+1) < h <= 1/ht
        sl = self.open.get((key, ht))
        if sl is None or (len(sl[4]) == ht if ht < self.hk
                          else sum(y for _, y in sl[4]) + h > 1):
            b = self.sh.insert(*v.as_integer_ratio())
            if self.sh.trace[-1].color == "red":
                x = 1 - Fraction(b.red_num, b.red_den)
            else:
                x = Fraction(b.blue_num, b.blue_den) - v
            sl = self.open[key, ht] = [len(self.slices), b.bid, x, v, []]
            self.slices.append(sl)
        sl[4].append((w, h))
        return tuple(sl[:4])


def oracle_rects(kind, low, eps, n, seed):
    """n seeded rectangles as side pairs: "uniform" sides on the 10^-8 grid of
    [low, 1]; "thin" as uniform, but every other rectangle has one side, by
    coin, log-uniform on [low, eps]; "unreduced" the thin pairs times 3."""
    if kind == "unreduced":
        return [((3 * a, 3 * b), (3 * c, 3 * d))
                for (a, b), (c, d) in oracle_rects("thin", low, eps, n, seed)]
    rng, den = random.Random(f"{kind}/{seed}"), 10 ** 8
    lo = math.ceil(low * den)

    def side():
        return rng.randint(lo, den), den

    out = []
    for pos in range(n):
        w, h = side(), side()
        if kind == "thin" and pos % 2:
            thin = max(lo, round(math.exp(rng.uniform(math.log(low), math.log(eps))) * den))
            w, h = ((thin, den), h) if rng.random() < 0.5 else (w, (thin, den))
        out.append((w, h))
    return out


class TestPlacementOracle:
    @pytest.mark.parametrize("orientation", ["hxb", "bxh"])
    @pytest.mark.parametrize("kind", ["uniform", "thin", "unreduced"])
    @pytest.mark.parametrize("delta,low", [(Fraction(1, 100), 1e-6),
                                           (Fraction(1, 10000), 1e-4)],
                             ids=["d-1/100", "d-1/10000"])
    @pytest.mark.parametrize("name", ["builtin", "harmonic7", "harmonic38"])
    def test_placements_equal_the_oracle(self, table, name, delta, low, kind,
                                         orientation):
        table = table if name == "builtin" else harmonic_table(int(name[8:]))
        rects = oracle_rects(kind, low, table.eps, 250, 1)
        run = TensorRun(table, orientation, delta)
        oracle = OracleTensorRun(table, orientation, delta)
        for pos, (w, h) in enumerate(rects):
            sl = run.insert(rectangle(w, h))
            got = sl.sid, sl.bin_id, Fraction(sl.x_num, sl.den), Fraction(sl.w_num, sl.den)
            assert got == oracle.insert(Fraction(*w), Fraction(*h)), pos
        assert [[(Fraction(wp, wq), Fraction(hp, hq)) for wp, wq, hp, hq in sl.items]
                for sl in run.slices] == [sl[4] for sl in oracle.slices]
        assert run.cost == oracle.sh.cost
        assert any(w <= table.eps for sl in oracle.slices for w, _ in sl[4])


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
        move_column(b, Fraction(a.x_num, a.den))  # forced onto the first one's spot
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
        assert Fraction(sl.w_num, sl.den) == Fraction(1, 3)
        x = Fraction(2, 3) + Fraction(1, 60)
        move_column(sl, x)
        assert x + sides_of(sl.items[0])[0] < 1 < x + Fraction(sl.w_num, sl.den)
        assert any("unit bin" in v for v in validate_geometry(run))

    def test_overlapping_columns_reported(self, table):
        # spans [0, 3/10] and [1/5, 1/2] overlap; their rectangles [0, 1/10]
        # and [1/5, 1/2] across miss each other
        run = TensorRun(table)
        for sid, x_num, w in ((0, 0, Fraction(1, 10)), (1, 2, Fraction(3, 10))):
            run.slices.append(Slice(sid=sid, bin_id=0, x_num=x_num, w_num=3, den=10,
                                    width_type=1, height_type=1, fill_num=1, fill_den=2,
                                    items=[Item2D(w, Fraction(1, 2))]))
        assert any("overlap" in v for v in validate_geometry(run))


def _pair_violations(run) -> list:
    """Brute force over rectangle pairs: each rectangle at its slice's x and
    the heights stacked below it, checked against the unit bin and against
    every other rectangle of its bin for positive-area overlap."""
    bad, per_bin = [], {}
    for sl in run.slices:
        x, y = Fraction(sl.x_num, sl.den), Fraction(0)
        for it in sl.items:
            w, h = sides_of(it)
            r = (x, y, x + w, y + h)
            if not (0 <= r[0] and r[2] <= 1 and r[3] <= 1):
                bad.append(("outside", r))
            per_bin.setdefault(sl.bin_id, []).append(r)
            y += h
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

        run = packed(TensorRun(table, "hxb", Fraction(1, 100)),
                     [Item2D(side(), side()) for _ in range(300)])
        assert validate_geometry(run) == [] and _pair_violations(run) == []
        stacks = [sl for sl in run.slices if len(sl.items) > 1]
        caught = [0, 0, 0]
        for _ in range(60):
            kind, grow = rng.randrange(3), Fraction(rng.randint(1, 1000), 5000)
            sl = rng.choice(stacks if kind == 2 else run.slices)
            column, items = (sl.x_num, sl.w_num, sl.den), list(sl.items)
            if kind == 0:  # shift the slice by up to 1/5 either way
                x = Fraction(sl.x_num, sl.den)
                move_column(sl, x + grow if rng.random() < 0.5 else x - grow)
            else:  # widen by up to 1/5, or heighten by up to 1, one rectangle
                pos = rng.randrange(len(items))
                w, h = sides_of(items[pos])
                w, h = (w + grow, h) if kind == 1 else (w, h + 5 * grow)
                sl.items[pos] = Item2D(min(w, Fraction(1)), min(h, Fraction(1)))
            if _pair_violations(run):
                caught[kind] += 1
                assert validate_geometry(run), (seed, sl.sid)
            (sl.x_num, sl.w_num, sl.den), sl.items = column, items
        assert validate_geometry(run) == []
        assert min(caught) >= 2, caught  # every kind of mutation breaks some runs


class TestCombinedWeight:
    def test_unit_weight_pair(self, wset):
        assert w2d(1, 1, Fraction("0.7"), Fraction("0.7"), wset) == 1

    def test_tail_pair(self, wset):
        want = Fraction(38, 37) ** 2 * Fraction(1, 10 ** 4)
        for i, j in ((1, 1), (3, 5), (7, 7)):
            assert w2d(i, j, Fraction(1, 100), Fraction(1, 100), wset) == want

    def test_eps_without_integer_inverse_is_refused(self, table):
        # 1/eps = 75/2 has no Harmonic index: the 1D case totals still hold,
        # and everything that weighs or stacks heights refuses the table
        odd = ParamTable(k=table.k, K=table.K, t=(*table.t[:51], Fraction(2, 75), Fraction(0)),
                         alpha=table.alpha, Delta=table.Delta, phi=table.phi)
        wset = WeightFunctionSet(odd)
        assert wset.case_totals([0] * 51, Fraction(2, 75))[1:] == [Fraction(2, 73)] * 7
        x = Fraction(1, 100)
        for refused in (lambda: w2d(1, 1, x, x, wset), lambda: TensorRun(odd),
                        lambda: build_f(1, Fraction(1, 2), wset)):
            with pytest.raises(ValueError, match="1/eps must be an integer"):
                refused()

    @given(st.integers(1, 10 ** 6), st.integers(1, 10 ** 6),
           st.integers(1, 7), st.integers(1, 7))
    @settings(max_examples=200, deadline=None)
    def test_transpose_symmetry(self, xn, yn, i, j):
        wset = _shared_wset()
        x, y = Fraction(xn, 10 ** 6), Fraction(yn, 10 ** 6)
        assert w2d(i, j, x, y, wset) == w2d(j, i, y, x, wset)


class TestTensorCost:
    def test_orientations_share_one_grid(self, table, monkeypatch):
        # both orientations read one ladder, grown as deep as either side needs
        monkeypatch.setattr(pack2d, "_LADDERS", {})  # no earlier run grew it
        items = [Item2D(Fraction(1, 10 ** 5), Fraction(1, 2)),
                 Item2D(Fraction(1, 2), Fraction(1, 10 ** 6))]
        _, hxb, bxh = tensor_cost(items, table)
        assert hxb.grid is bxh.grid
        m = class_of(hxb.grid, Fraction(1, 10 ** 6))  # the deeper side, in bxh
        assert len(hxb.grid._num) - 1 == 1 + 1024 * -(-m // 1024)

    def test_calls_at_one_eps_and_d_share_a_ladder(self, table, monkeypatch):
        # one ladder per (eps, d), kept between calls; a TinyGrid built
        # directly is a fresh one
        monkeypatch.setattr(pack2d, "_LADDERS", {})
        d = Fraction(1, 100)
        _, a, _ = tensor_cost([Item2D(Fraction(1, 10 ** 4), Fraction(1, 2))], table, d)
        _, b, c = tensor_cost([Item2D(Fraction(1, 2), Fraction(1, 3))], table, d)
        _, other, _ = tensor_cost([], table, Fraction(1, 1000))
        assert a.grid is b.grid is c.grid and other.grid is not a.grid
        assert len(a.grid._num) > 1024 and TinyGrid(table.eps, d) is not a.grid
        assert pack2d._LADDERS == {(table.eps, d): a.grid,
                                   (table.eps, Fraction(1, 1000)): other.grid}

    def test_deeper_ladder_packs_the_same_slices(self, table, monkeypatch):
        # a class does not depend on how far the shared ladder has grown: an
        # instance packs to the same slices (x, width, rectangles) before and
        # after a run grew the ladder more than twice as deep
        monkeypatch.setattr(pack2d, "_LADDERS", {})
        rng = random.Random(12)

        def side():
            if rng.random() < 0.3:
                return Fraction(rng.randint(1, 1000), 10 ** rng.randint(4, 7))
            return Fraction(rng.randint(1, 10 ** 6), 10 ** 6)

        items = [Item2D(side(), side()) for _ in range(800)]
        _, hxb, bxh = tensor_cost(items, table)
        shallow = len(hxb.grid._num)
        packed(TensorRun(table), [Item2D(Fraction(1, 10 ** 15), Fraction(1, 2))])
        assert len(hxb.grid._num) > 2 * shallow
        _, hxb2, bxh2 = tensor_cost(items, table)
        assert hxb2.grid is hxb.grid
        assert hxb2.slices == hxb.slices and bxh2.slices == bxh.slices

    def test_bxh_run_equals_hxb_run_of_transposed_instance(self, table):
        # each orientation of an instance packs, slice for slice, as the
        # other one of the instance with every rectangle turned
        rng = random.Random(13)
        items = [Item2D(Fraction(rng.randint(1, 1000), 10 ** rng.randint(3, 6)),
                        Fraction(rng.randint(1, 10 ** 6), 10 ** 6))
                 for _ in range(1200)]
        tc, hxb, bxh = tensor_cost(items, table)
        turned, thxb, tbxh = tensor_cost([Item2D(*sides_of(it)[::-1]) for it in items], table)
        assert len(bxh.slices) > 100 and bxh.slices == thxb.slices
        assert hxb.slices == tbxh.slices
        assert (tc.cost_hxb, tc.cost_bxh, tc.avg) == (turned.cost_bxh, turned.cost_hxb,
                                                      turned.avg)

    def test_empty(self, table):
        tc, _, _ = tensor_cost([], table)
        assert (tc.cost_hxb, tc.cost_bxh, tc.avg) == (0, 0, 0)

    def test_iterator_packs_both_orientations(self, table):
        # the items are read once: a generator feeds bxh as well as hxb
        items = [Item2D(Fraction(3, 4), Fraction(1, 3))] * 4
        tc, hxb, bxh = tensor_cost(iter(items), table)
        assert (tc.cost_hxb, tc.cost_bxh, tc.avg) == (2, 2, 2)
        assert [len(sl.items) for sl in bxh.slices] == [1, 1, 1, 1]
        assert tc == tensor_cost(items, table)[0]

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
