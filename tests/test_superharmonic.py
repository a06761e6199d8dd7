import random
from collections import Counter
from fractions import Fraction

import pytest

from harmonicpack import superharmonic
from harmonicpack.generators import Item2D
from harmonicpack.harmonic import HarmonicPacker
from harmonicpack.pack2d import TensorRun, validate_geometry
from harmonicpack.superharmonic import ShState
from harmonicpack.weighting import bound_check, slack_allowance

from conftest import grid_sizes


def red_heavy_sizes(table, n, seed):
    """Sizes just above the infima of types with red fractions."""
    red_types = [i for i in range(1, table.k + 1) if table.alpha[i] > 0]
    eta = Fraction(1, 10 ** 6)
    levels = [table.t[i + 1] + eta for i in red_types]
    rng = random.Random(seed)
    return [levels[rng.randrange(len(levels))] for _ in range(n)]


class TestCascadeTraces:
    def test_first_type9_item_opens_blue_only_group(self, table):
        st = ShState(table, keep_trace=True)
        b = st.insert(Fraction("0.41"))
        tr = st.trace[-1]
        assert b is st.bins[0] and tr.bin_id == b.bid
        assert tr.type_index == 9 and tr.color == "blue"
        assert tr.group_after == "(9)" and tr.opened
        assert st.s[9] == 1 and st.e[9] == 0

    def test_seventh_type9_item_turns_red(self, table):
        st = ShState(table, keep_trace=True).pack([Fraction("0.41")] * 7)
        traces = st.trace
        # floor(0.162 * s) stays 0 until s = 7
        assert all(t.color == "blue" for t in traces[:6])
        assert traces[6].color == "red" and traces[6].group_after == "(?,9)"
        assert st.e[9] == 1

    def test_large_blue_cannot_convert_too_big_red(self, table):
        st = ShState(table, keep_trace=True)
        for _ in range(7):
            st.insert(Fraction("0.41"))
        # type 2 reserves Delta[1] = 0.294 < gamma_9 * t_9 = 0.42
        st.insert(Fraction("0.7"))
        tr = st.trace[-1]
        assert tr.type_index == 2 and tr.color == "blue"
        assert tr.group_after == "(2,?)" and tr.opened

    def test_conversion_when_space_fits(self, table):
        st = ShState(table, keep_trace=True)
        # force a red type-16 item (alpha(16) = 0.186: the 6th is red)
        for _ in range(6):
            st.insert(Fraction("0.21"))
        census = st.group_census()
        assert census.red_indet == {16: 1}
        # a type-2 blue reserves Delta[1] = 0.294 >= gamma_16 * t_16 = 0.25
        b = st.insert(Fraction("0.7"))
        tr = st.trace[-1]
        assert tr.color == "blue" and tr.group_after == "(2,16)" and not tr.opened
        assert tr.group_before == "(?,16)" and b.bid == tr.bin_id == st.trace[5].bin_id
        assert st.group_census().pairs == {(2, 16): 1}

    def test_red_joins_open_pair_bin(self, table):
        st = ShState(table)
        for _ in range(6):
            st.insert(Fraction("0.21"))
        st.insert(Fraction("0.7"))  # converts to (2,16)
        # next red type-16 fits the same bin until gamma = 1 is reached;
        # gamma_16 = 1 so the pair bin is red-full; a new red opens (?,16)
        for _ in range(5):
            st.insert(Fraction("0.21"))
        c = st.group_census()
        assert c.pairs == {(2, 16): 1}
        assert c.red_indet.get(16, 0) == 1

    def test_tiny_items_next_fit(self, table):
        st = ShState(table)
        for _ in range(100):
            st.insert(Fraction(1, 100))
        assert st.nf_bins == 1 and st.small_mass == 1
        st.insert(Fraction(1, 100))
        assert st.nf_bins == 2
        assert st.small_count == 101

    def test_small_mass_is_summed_tail_size(self, table):
        rng = random.Random(12)
        st = ShState(table, keep_trace=True)
        tail = Fraction(0)
        for n in range(1, 3001):
            s = Fraction(rng.randint(1, 10 ** 6), 10 ** 6 * rng.choice((1, 50)))
            st.insert(s)
            if st.trace[-1].type_index == table.k + 1:
                tail += s
            if n in (1, 40, 999, 3000):
                assert st.small_mass == tail, n
        assert tail > 0

    def test_out_of_range(self, table):
        st = ShState(table)
        with pytest.raises(ValueError):
            st.insert(Fraction(0))


class TestStateInvariants:
    @pytest.mark.parametrize("seed,n", [(1, 3000), (2, 3000)])
    def test_red_count_law_every_step(self, table, seed, n):
        st = ShState(table, keep_trace=True)
        for s in grid_sizes(random.Random(seed), n):
            st.insert(s)
            i = st.trace[-1].type_index
            if i <= table.k:
                # only the touched counter can change; checking it after
                # every insertion verifies the law inductively
                assert st.e[i] == int(table.alpha[i] * st.s[i])
        assert all(st.e[i] == int(table.alpha[i] * st.s[i])
                   for i in range(1, table.k + 1))

    def test_census_identities(self, table):
        # blue side: bins holding blues ~ sum (1-alpha) l / beta, within k
        # red side: bins holding reds ~ sum alpha l / gamma, within k
        for seed in (3, 4):
            st = ShState(table)
            for s in grid_sizes(random.Random(seed), 5000):
                st.insert(s)
            c = st.group_census()
            blue_lhs = (sum(c.blue_only.values()) + sum(c.blue_indet.values())
                        + sum(c.pairs.values()))
            blue_rhs = sum((1 - table.alpha[i]) * Fraction(st.s[i], table.beta[i])
                           for i in range(1, table.k + 1))
            assert abs(blue_lhs - blue_rhs) <= table.k
            red_lhs = sum(c.red_indet.values()) + sum(c.pairs.values())
            red_rhs = sum(table.alpha[i] * Fraction(st.s[i], table.gamma[i])
                          for i in range(1, table.k + 1) if table.gamma[i])
            assert abs(red_lhs - red_rhs) <= table.k

    def test_census_closed_form_single_type(self, table):
        # independent oracle for a pure type-9 stream of 100 items:
        # reds = floor(0.162*100) = 16, blues = 84 in group-(9) bins of 2,
        # each red opens its own (?,9) bin (gamma 1, no partners)
        st = ShState(table)
        for _ in range(100):
            st.insert(Fraction("0.41"))
        assert (st.s[9], st.e[9]) == (100, 16)
        c = st.group_census()
        assert c.blue_only == {9: 42}  # ceil(84 / 2)
        assert c.red_indet == {9: 16}
        assert c.pairs == {} and c.blue_indet == {}
        assert st.cost == 58

    def test_census_matches_placement_trace(self, table):
        # the trace records every bin's group as items arrive, so the last
        # group_after per bin is the group the census must count it in
        st = ShState(table, keep_trace=True)
        for s in grid_sizes(random.Random(9), 4000):
            st.insert(s)
        last = {tr.bin_id: tr.group_after for tr in st.trace}
        tally = Counter(last.values())
        c = st.group_census()
        assert c.nf_bins > 0 and c.pairs and c.blue_only
        assert tally.pop("nf", 0) == c.nf_bins
        census = Counter()
        for i, n in c.blue_only.items():
            census[f"({i})"] += n
        for i, n in c.blue_indet.items():
            census[f"({i},?)"] += n
        for j, n in c.red_indet.items():
            census[f"(?,{j})"] += n
        for (i, j), n in c.pairs.items():
            census[f"({i},{j})"] += n
        assert tally == census
        assert len(last) == c.cost

    def test_feasibility_and_open_bins(self, table):
        st = ShState(table)
        allowance = slack_allowance(table)
        for step, s in enumerate(grid_sizes(random.Random(10), 4000)):
            st.insert(s)
            if step % 200 == 0:
                assert st.open_bin_like_count() <= allowance
        assert st.check_feasibility() == []
        assert st.open_bin_like_count() <= allowance

    def test_determinism(self, table):
        sizes = grid_sizes(random.Random(12), 2500)
        a = ShState(table).pack(sizes)
        b = ShState(table).pack(sizes)
        assert a.cost == b.cost
        ca, cb = a.group_census(), b.group_census()
        assert (ca.blue_only, ca.blue_indet, ca.red_indet, ca.pairs) == \
               (cb.blue_only, cb.blue_indet, cb.red_indet, cb.pairs)


class TestFinalCase:
    def test_no_reds_is_case_one(self, table):
        st = ShState(table)
        for _ in range(10):
            st.insert(Fraction("0.45"))  # type 8, alpha 0
        fc = st.final_case()
        assert fc.case_id == 1 and fc.E == 0 and fc.r is None

    def test_leftover_type16_reds_give_top_case(self, table):
        # (?,16) bins left open: varphi(16) = 1 -> case K+1 = 7
        st = ShState(table)
        for _ in range(40):
            st.insert(Fraction("0.21"))
        fc = st.final_case()
        assert fc.E > 0 and fc.r == 16 and fc.j == 1 and fc.case_id == 7

    def test_leftover_type9_reds_give_case_two(self, table):
        # (?,9) bins: varphi(9) = 6 -> case K+2-6 = 2
        st = ShState(table)
        for _ in range(40):
            st.insert(Fraction("0.41"))
        fc = st.final_case()
        assert fc.E > 0 and fc.r == 9 and fc.j == 6 and fc.case_id == 2

    @pytest.mark.parametrize("size,rtype,case_id", [
        ("0.41", 9, 2),   # varphi 6
        ("0.39", 10, 3),  # varphi 5
        ("0.37", 11, 4),  # varphi 4
        ("0.35", 12, 5),  # varphi 3; blue-12 bins cannot host red 12s
        ("0.34", 13, 6),  # varphi 2
        ("0.21", 16, 7),  # varphi 1
    ])
    def test_every_final_case_reachable(self, table, size, rtype, case_id):
        # a pure stream of one red-bearing type leaves its own red bins
        # indeterminate, so the case index tracks varphi of that type
        st = ShState(table)
        for _ in range(60):
            st.insert(Fraction(size))
        fc = st.final_case()
        assert fc.E > 0 and fc.r == rtype
        assert fc.case_id == case_id

    def test_smallest_red_selects_case(self, table):
        # both type-9 and type-16 reds open: the smaller item (type 16)
        # drives the case
        st = ShState(table)
        for _ in range(40):
            st.insert(Fraction("0.41"))
        for _ in range(40):
            st.insert(Fraction("0.21"))
        fc = st.final_case()
        assert fc.r == 16 and fc.case_id == 7

    @pytest.mark.parametrize("seed", [21, 22, 23])
    def test_structural_zeroes(self, table, seed):
        st = ShState(table)
        for s in red_heavy_sizes(table, 4000, seed):
            st.insert(s)
        fc = st.final_case()
        if fc.j is not None and fc.j >= 2:
            c = st.group_census()
            assert sum(n for i, n in c.red_indet.items()
                       if table.varphi[i] < fc.j) == 0
            assert sum(n for i, n in c.blue_indet.items()
                       if table.phi[i] >= fc.j) == 0


class TestTraceOutput:
    def test_trace_csv_shape(self, table):
        st = ShState(table, keep_trace=True)
        st.insert(Fraction("0.41"))
        st.insert(Fraction(1, 100))
        rows = [t.csv_row() for t in st.trace]
        assert rows[0].split(",") == ["0", "41/100", "9", "blue", "-", "(9)", "0", "1"]
        assert rows[1].split(",")[3] == "tiny"

    def test_trace_off_by_default(self, table):
        st = ShState(table)
        st.insert(Fraction("0.41"))
        assert st.trace == []

    def test_group_before_is_the_bins_previous_group(self, table):
        # each row's group_before is the group_after of the bin's previous
        # row; a coloured bin's first row opened it ("-"), tiny rows say "nf"
        sizes = grid_sizes(random.Random(9), 4000)
        st = ShState(table, keep_trace=True).pack(sizes)
        last = {}
        converted = 0
        for n, tr in enumerate(st.trace):
            assert (tr.item_index, tr.size) == (n, sizes[n])
            want = "nf" if tr.color == "tiny" else last.get(tr.bin_id, "-")
            assert tr.group_before == want, n
            assert tr.opened == (tr.bin_id not in last), n
            converted += tr.group_before not in ("-", tr.group_after)
            last[tr.bin_id] = tr.group_after
        assert converted > 0

    def test_nothing_traced_unless_asked(self, table, monkeypatch):
        # untraced runs of the three packers build no trace row and name no
        # group; the patch is live, as the traced insert shows
        def refuse(*args, **kwargs):
            raise RuntimeError("trace record built")

        monkeypatch.setattr(superharmonic, "PlacementTrace", refuse)
        monkeypatch.setattr(superharmonic.Bin, "group", refuse)
        with pytest.raises(RuntimeError, match="trace record built"):
            ShState(table, keep_trace=True).insert(Fraction("0.41"))
        rng = random.Random(14)
        sizes = [Fraction(rng.randint(1, 10 ** 6), 10 ** 6 * rng.choice((1, 50)))
                 for _ in range(2000)]
        st = ShState(table).pack(sizes)
        assert st.trace == [] and st.nf_bins > 0 and st.group_census().pairs
        widths = [Fraction(rng.randint(1, 10 ** 6), 10 ** 6 * rng.choice((1, 10 ** 6)))
                  for _ in range(500)]
        rects = [Item2D(w, h) for w, h in zip(widths, sizes)]
        run = TensorRun(table).pack(rects)
        assert any(sl.width_type == table.k + 1 for sl in run.slices)
        assert validate_geometry(run) == []
        hp = HarmonicPacker(38)
        assert hp.pack(sizes) is hp and hp.cost > 0


class TestCostBound:
    def test_pure_type8_run_has_zero_slack(self, table):
        st = ShState(table)
        for _ in range(1000):
            st.insert(Fraction("0.45"))
        rep = bound_check(st)
        assert rep.cost == 500 and rep.slack == 0

    def test_empty_run(self, table):
        rep = bound_check(ShState(table))
        assert rep.cost == 0 and rep.max_total == 0 and rep.slack == 0

    @pytest.mark.parametrize("seed,n", [(31, 1000), (32, 10000)])
    def test_cost_bound_random(self, table, seed, n):
        st = ShState(table)
        for s in grid_sizes(random.Random(seed), n):
            st.insert(s)
        rep = bound_check(st)
        assert rep.slack <= slack_allowance(table)
        assert rep.final_case_slack <= slack_allowance(table)
        assert rep.max_total >= rep.final_case_total
