import random
import re
from collections import Counter, deque
from fractions import Fraction

import pytest

from harmonicpack import superharmonic
from harmonicpack.generators import Item2D
from harmonicpack.pack2d import TensorRun, validate_geometry
from harmonicpack.params import exact_add
from harmonicpack.superharmonic import FinalCase, ShState, traced_insert
from harmonicpack.weighting import bound_check, slack_allowance

from conftest import Traced, grid_sizes, harmonic_bins, harmonic_table, packed


def red_heavy_sizes(table, n, seed):
    """Sizes just above the infima of types with red fractions."""
    red_types = [i for i in range(1, table.k + 1) if table.alpha[i] > 0]
    eta = Fraction(1, 10 ** 6)
    levels = [table.t[i + 1] + eta for i in red_types]
    rng = random.Random(seed)
    return [levels[rng.randrange(len(levels))] for _ in range(n)]


def partly_filled(st) -> Counter:
    """(type, colour) -> bins holding some, but not a full load, of that colour;
    the cascade keeps each count at most 1."""
    part = Counter()
    for b in st.bins:
        if b.blue_type is not None and b.blue_count < st.table.beta[b.blue_type]:
            part[b.blue_type, "blue"] += 1
        if b.red_type is not None and b.red_count < st.table.gamma[b.red_type]:
            part[b.red_type, "red"] += 1
    return part


class OracleShState:
    """SH+ as it placed items before the cascade moved to a per-type plan, the
    oracle of that rewrite: each item goes through a colour helper and an add
    helper, and each conversion scan compares the table's Fractions.  Nothing
    is inherited from ShState: the trace rows, the census (counted from a list
    of each bin's group) and the small mass (summed from a list of the tail
    sizes) are built by the oracle's own rules."""

    def __init__(self, table, keep_trace=False):
        self.table = table
        k = table.k
        self.s = [0] * (k + 1)
        self.e = [0] * (k + 1)
        self.bins = []
        self._nf_bin = None
        self.keep_trace = keep_trace
        self.trace = []
        self._blue_open = [None] * (k + 1)
        self._red_open = [None] * (k + 1)
        self._blue_indet = [None] + [deque() for _ in range(k)]
        self._red_indet = [None] + [deque() for _ in range(k)]
        self._alpha = [None] + [table.alpha[i].as_integer_ratio() for i in range(1, k + 1)]
        self._red_space = [None] + [table.gamma[i] * table.t[i] for i in range(1, k + 1)]
        self._convertible_blue = [i for i in range(1, k + 1) if table.phi[i] > 0]
        self._red_types = [i for i in range(1, k + 1) if table.alpha[i] > 0]
        self._tail_sizes = []

    def _open_bin(self):
        self.bins.append(superharmonic.Bin(len(self.bins)))
        return self.bins[-1]

    @property
    def cost(self):
        return len(self.bins)

    @property
    def small_mass(self):
        return sum(self._tail_sizes, Fraction(0))

    def group_census(self):
        groups = Counter()  # (kind, type or type pair) per bin
        for b in self.bins:
            if b.blue_type is None:
                groups["nf" if b.red_type is None else "red", b.red_type] += 1
            elif b.red_type is not None:
                groups["pair", (b.blue_type, b.red_type)] += 1
            else:
                groups["indet" if self.table.phi[b.blue_type] else "only", b.blue_type] += 1

        def part(kind):
            return {key: n for (k, key), n in groups.items() if k == kind}

        return superharmonic.GroupCensus(
            blue_only=part("only"), blue_indet=part("indet"), red_indet=part("red"),
            pairs=part("pair"), nf_bins=groups["nf", None], cost=self.cost)

    def pack(self, sizes):
        for s in sizes:
            self.insert(*s.as_integer_ratio())
        return self

    def _trace_row(self, size, i, color, b):
        # the item opened b exactly when it is all that b holds
        blue = None if color == "blue" and b.blue_count == 1 else b.blue_type
        red = None if color == "red" and b.red_count == 1 else b.red_type
        opened = b.content_sum == size
        group = superharmonic._group_name
        before = "-" if opened and color != "tiny" else group(self.table, blue, red)
        return superharmonic.PlacementTrace(len(self.trace), size, i, color, before,
                                            group(self.table, b.blue_type, b.red_type),
                                            b.bid, opened)

    def _add_blue(self, b, i, p, q):
        b.blue_type = i
        b.blue_count += 1
        b.blue_num, b.blue_den = exact_add(b.blue_num, b.blue_den, p, q)
        if b.blue_count < self.table.beta[i]:
            self._blue_open[i] = b
        elif self._blue_open[i] is b:
            self._blue_open[i] = None

    def _add_red(self, b, i, p, q):
        b.red_type = i
        b.red_count += 1
        b.red_num, b.red_den = exact_add(b.red_num, b.red_den, p, q)
        if b.red_count < self.table.gamma[i]:
            self._red_open[i] = b
        elif self._red_open[i] is b:
            self._red_open[i] = None

    def insert(self, p, q):
        table = self.table
        i = table.classify(p, q)
        if i == table.k + 1:
            color = "tiny"
            b = self._insert_tiny(p, q)
        else:
            self.s[i] += 1
            a_num, a_den = self._alpha[i]
            if self.e[i] < a_num * self.s[i] // a_den:
                self.e[i] += 1
                color = "red"
                b = self._insert_red(i, p, q)
            else:
                color = "blue"
                b = self._insert_blue(i, p, q)
        if self.keep_trace:
            self.trace.append(self._trace_row(Fraction(p, q), i, color, b))
        return b

    def _insert_tiny(self, p, q):
        b = self._nf_bin
        if b is None or b.blue_num * q + p * b.blue_den > b.blue_den * q:
            b = self._nf_bin = self._open_bin()
        b.blue_count += 1
        b.blue_num, b.blue_den = exact_add(b.blue_num, b.blue_den, p, q)
        self._tail_sizes.append(Fraction(p, q))
        return b

    def _insert_red(self, i, p, q):
        table = self.table
        b = self._red_open[i]
        if b is None:
            need = self._red_space[i]
            for j in self._convertible_blue:
                pool = self._blue_indet[j]
                if pool and table.Delta[table.phi[j]] >= need:
                    b = pool.popleft()
                    break
        if b is None:
            b = self._open_bin()
            self._red_indet[i].append(b)
        self._add_red(b, i, p, q)
        return b

    def _insert_blue(self, i, p, q):
        table = self.table
        b = self._blue_open[i]
        if b is None and table.phi[i] > 0:
            space = table.Delta[table.phi[i]]
            for j in self._red_types:
                pool = self._red_indet[j]
                if pool and self._red_space[j] <= space:
                    b = pool.popleft()
                    break
        if b is None:
            b = self._open_bin()
            if table.phi[i] > 0:
                self._blue_indet[i].append(b)
        self._add_blue(b, i, p, q)
        return b

    def final_case(self):
        pools = self._red_indet
        E = sum(len(pools[i]) for i in self._red_types)
        if E == 0:
            return FinalCase(E=0, r=None, j=None, case_id=1)
        r = max(i for i in self._red_types if pools[i])
        j = self.table.varphi[r]
        return FinalCase(E=E, r=r, j=j, case_id=self.table.K + 2 - j)

    def check_feasibility(self):
        table = self.table
        bad = [f"type {i}: red-count law broken" for i in range(1, table.k + 1)
               if self.e[i] != self._alpha[i][0] * self.s[i] // self._alpha[i][1]]
        blue_space = [None] + [table.beta[i] * table.t[i] for i in range(1, table.k + 1)]
        for b in self.bins:
            if b.blue_num * b.red_den + b.red_num * b.blue_den > b.blue_den * b.red_den:
                bad.append(f"bin {b.bid}: content {b.content_sum} > 1")
            if b.blue_type is not None:
                i = b.blue_type
                if b.blue_count > table.beta[i]:
                    bad.append(f"bin {b.bid}: {b.blue_count} blues > beta[{i}]")
                cap = blue_space[i]
                if b.blue_num * cap.denominator > cap.numerator * b.blue_den:
                    bad.append(f"bin {b.bid}: blue mass over beta*t for type {i}")
            if b.red_type is not None:
                jj = b.red_type
                if b.red_count > table.gamma[jj]:
                    bad.append(f"bin {b.bid}: {b.red_count} reds > gamma[{jj}]")
                cap = self._red_space[jj]
                if b.red_num * cap.denominator > cap.numerator * b.red_den:
                    bad.append(f"bin {b.bid}: red mass over gamma*t for type {jj}")
            if b.blue_type is not None and b.red_type is not None:
                need = self._red_space[b.red_type]
                if need > table.Delta[table.phi[b.blue_type]]:
                    bad.append(f"bin {b.bid}: red load does not fit reserved space")
        return bad


def size_stream(table, kind, n, seed):
    """n seeded size pairs (p, q) of one kind for the differential test."""
    rng = random.Random(f"{kind}/{seed}")
    breaks = [table.t[i] for i in range(2, table.k + 2)]
    eta = Fraction(1, 10 ** 6)
    if kind == "uniform":
        return [(rng.randint(1, 10 ** 6), 10 ** 6) for _ in range(n)]
    if kind == "small":  # uniform on (0, 1/7]
        return [(rng.randint(1, 10 ** 6), 7 * 10 ** 6) for _ in range(n)]
    if kind == "on-breakpoint":
        return [rng.choice(breaks).as_integer_ratio() for _ in range(n)]
    if kind == "above-breakpoint":
        return [(rng.choice(breaks) + eta).as_integer_ratio() for _ in range(n)]
    if kind == "above-ascending":  # red pools of many types fill before the large blues
        return sorted(size_stream(table, "above-breakpoint", n, seed),
                      key=lambda pq: Fraction(*pq))
    if kind == "unreduced":  # 2p/2q for sizes on the 10^-6 grid and breakpoints
        pairs = (size_stream(table, "uniform", n, seed)
                 + size_stream(table, "on-breakpoint", n, seed))
        return [(2 * p, 2 * q) for p, q in rng.sample(pairs, n)]
    assert kind == "long"  # 100-digit denominators
    out = []
    for _ in range(n):
        q = rng.randrange(10 ** 99, 10 ** 100)
        out.append((rng.randint(1, q // rng.choice((1, 7, 40))), q))
    return out


def bin_state(b):
    return (b.bid, b.blue_type, b.blue_count, b.blue_num, b.blue_den,
            b.red_type, b.red_count, b.red_num, b.red_den)


def bin_edit(rng, table):
    """{field: value} of one seeded edit to a bin's type, count or sum."""
    colour, what = rng.choice(("blue", "red")), rng.choice(("type", "count", "sum"))
    if what == "type":
        return {f"{colour}_type": rng.choice([None, *range(1, table.k + 1)])}
    if what == "count":
        return {f"{colour}_count": rng.randint(0, 8)}
    den = rng.choice((7, 10, 100))
    return {f"{colour}_num": rng.randint(0, den + den // 5), f"{colour}_den": den}


TABLES = {"builtin": None, "harmonic7": 7, "harmonic38": 38}


class Classifying(ShState):
    """An SH+ run that drops a given type and classifies every item itself."""

    def insert(self, p, q, i=None):
        return super().insert(p, q)


class TestCascadeTraces:
    def test_first_type9_item_opens_blue_only_group(self, table):
        st = Traced(ShState(table))
        b = st.insert(41, 100)
        tr = st.trace[-1]
        assert b is st.bins[0] and tr.bin_id == b.bid
        assert tr.type_index == 9 and tr.color == "blue"
        assert tr.group_after == "(9)" and tr.opened
        assert st.s[9] == 1 and st.e[9] == 0

    def test_seventh_type9_item_turns_red(self, table):
        st = Traced(ShState(table)).pack([Fraction("0.41")] * 7)
        traces = st.trace
        # floor(0.162 * s) stays 0 until s = 7
        assert all(t.color == "blue" for t in traces[:6])
        assert traces[6].color == "red" and traces[6].group_after == "(?,9)"
        assert st.e[9] == 1

    def test_large_blue_cannot_convert_too_big_red(self, table):
        st = Traced(ShState(table))
        for _ in range(7):
            st.insert(41, 100)
        # type 2 reserves Delta[1] = 0.294 < gamma_9 * t_9 = 0.42
        st.insert(7, 10)
        tr = st.trace[-1]
        assert tr.type_index == 2 and tr.color == "blue"
        assert tr.group_after == "(2,?)" and tr.opened

    def test_conversion_when_space_fits(self, table):
        st = Traced(ShState(table))
        # force a red type-16 item (alpha(16) = 0.186: the 6th is red)
        for _ in range(6):
            st.insert(21, 100)
        census = st.group_census()
        assert census.red_indet == {16: 1}
        # a type-2 blue reserves Delta[1] = 0.294 >= gamma_16 * t_16 = 0.25
        b = st.insert(7, 10)
        tr = st.trace[-1]
        assert tr.color == "blue" and tr.group_after == "(2,16)" and not tr.opened
        assert tr.group_before == "(?,16)" and b.bid == tr.bin_id == st.trace[5].bin_id
        assert st.group_census().pairs == {(2, 16): 1}

    def test_red_joins_open_pair_bin(self, table):
        st = ShState(table)
        for _ in range(6):
            st.insert(21, 100)
        st.insert(7, 10)  # converts to (2,16)
        # next red type-16 fits the same bin until gamma = 1 is reached;
        # gamma_16 = 1 so the pair bin is red-full; a new red opens (?,16)
        for _ in range(5):
            st.insert(21, 100)
        c = st.group_census()
        assert c.pairs == {(2, 16): 1}
        assert c.red_indet.get(16, 0) == 1

    def test_tiny_items_next_fit(self, table):
        st = ShState(table)
        for _ in range(100):
            st.insert(1, 100)
        assert st.group_census().nf_bins == 1 and st.small_mass == 1
        st.insert(1, 100)
        assert st.group_census().nf_bins == 2
        assert sum(b.blue_count for b in st.bins
                   if b.blue_type is None and b.red_type is None) == 101

    def test_small_mass_is_summed_tail_size(self, table):
        rng = random.Random(12)
        st = Traced(ShState(table))
        tail = Fraction(0)
        for n in range(1, 3001):
            s = Fraction(rng.randint(1, 10 ** 6), 10 ** 6 * rng.choice((1, 50)))
            st.insert(s.numerator, s.denominator)
            if st.trace[-1].type_index == table.k + 1:
                tail += s
            if n in (1, 40, 999, 3000):
                assert st.small_mass == tail, n
        assert tail > 0

    def test_out_of_range(self, table):
        st = ShState(table)
        with pytest.raises(ValueError):
            st.insert(0, 1)


class TestStateInvariants:
    @pytest.mark.parametrize("seed,n", [(1, 3000), (2, 3000)])
    def test_red_count_law_every_step(self, table, seed, n):
        st = Traced(ShState(table))
        for s in grid_sizes(random.Random(seed), n):
            st.insert(s.numerator, s.denominator)
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
                st.insert(s.numerator, s.denominator)
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
            st.insert(41, 100)
        assert (st.s[9], st.e[9]) == (100, 16)
        c = st.group_census()
        assert c.blue_only == {9: 42}  # ceil(84 / 2)
        assert c.red_indet == {9: 16}
        assert c.pairs == {} and c.blue_indet == {}
        assert st.cost == 58

    def test_census_matches_placement_trace(self, table):
        # the trace records every bin's group as items arrive, so the last
        # group_after per bin is the group the census must count it in
        st = Traced(ShState(table))
        for s in grid_sizes(random.Random(9), 4000):
            st.insert(s.numerator, s.denominator)
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
            st.insert(s.numerator, s.denominator)
            if step % 200 == 0:
                part = partly_filled(st)
                assert max(part.values(), default=0) <= 1
                assert sum(part.values()) + 1 <= allowance  # and the Next-Fit bin
        assert st.check_feasibility() == []
        assert max(partly_filled(st).values(), default=0) <= 1

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
            st.insert(9, 20)  # type 8, alpha 0
        fc = st.final_case()
        assert fc.case_id == 1 and fc.E == 0 and fc.r is None

    def test_leftover_type16_reds_give_top_case(self, table):
        # (?,16) bins left open: varphi(16) = 1 -> case K+1 = 7
        st = ShState(table)
        for _ in range(40):
            st.insert(21, 100)
        fc = st.final_case()
        assert fc.E > 0 and fc.r == 16 and fc.j == 1 and fc.case_id == 7

    def test_leftover_type9_reds_give_case_two(self, table):
        # (?,9) bins: varphi(9) = 6 -> case K+2-6 = 2
        st = ShState(table)
        for _ in range(40):
            st.insert(41, 100)
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
            st.insert(*Fraction(size).as_integer_ratio())
        fc = st.final_case()
        assert fc.E > 0 and fc.r == rtype
        assert fc.case_id == case_id

    def test_smallest_red_selects_case(self, table):
        # both type-9 and type-16 reds open: the smaller item (type 16)
        # drives the case
        st = ShState(table)
        for _ in range(40):
            st.insert(41, 100)
        for _ in range(40):
            st.insert(21, 100)
        fc = st.final_case()
        assert fc.r == 16 and fc.case_id == 7

    @pytest.mark.parametrize("seed", [31, 32, 33, 34])
    @pytest.mark.parametrize("n", [150, 3000])  # cases 5 and 6; case 7
    def test_final_case_matches_trace(self, table, n, seed):
        # independent reference: the bins whose last traced group is (?,j)
        # are the red-indeterminate leftovers; their smallest traced red item
        # names the type that selects the case
        st = Traced(ShState(table)).pack(red_heavy_sizes(table, n, seed))
        last = {tr.bin_id: tr.group_after for tr in st.trace}
        leftover = {bid for bid, group in last.items() if group.startswith("(?,")}
        reds = [tr.size for tr in st.trace
                if tr.color == "red" and tr.bin_id in leftover]
        fc = st.final_case()
        assert leftover and fc.E == len(leftover)
        assert fc.r == table.classify(*min(reds).as_integer_ratio())
        assert fc.case_id == table.K + 2 - table.varphi[fc.r]

    @pytest.mark.parametrize("seed", [21, 22, 23])
    def test_structural_zeroes(self, table, seed):
        st = ShState(table)
        for s in red_heavy_sizes(table, 4000, seed):
            st.insert(s.numerator, s.denominator)
        fc = st.final_case()
        if fc.j is not None and fc.j >= 2:
            c = st.group_census()
            assert sum(n for i, n in c.red_indet.items()
                       if table.varphi[i] < fc.j) == 0
            assert sum(n for i, n in c.blue_indet.items()
                       if table.phi[i] >= fc.j) == 0


class TestTraceOutput:
    def test_trace_csv_shape(self, table):
        st = Traced(ShState(table))
        st.insert(41, 100)
        st.insert(1, 100)
        rows = [t.csv_row() for t in st.trace]
        assert rows[0].split(",") == ["0", "41/100", "9", "blue", "-", "(9)", "0", "1"]
        assert rows[1].split(",")[3] == "tiny"

    def test_group_before_is_the_bins_previous_group(self, table):
        # each row's group_before is the group_after of the bin's previous
        # row; a coloured bin's first row opened it ("-"), tiny rows say "nf".
        # A bin changes group only when a red item converts an (i,?) bin or a
        # blue item a (?,j) bin.  The run holds both kinds: in the ascending
        # first half, small reds open (?,j) bins that larger blues convert; in
        # the random second half, reds convert (i,?) bins
        sizes = grid_sizes(random.Random(9), 4000)
        sizes[:2000] = sorted(sizes[:2000])
        st = Traced(ShState(table)).pack(sizes)
        last = {}
        converted = Counter()  # (colour, shape before, shape after) of each change

        def shape(group):
            return re.sub(r"\d+", "n", group)

        for n, tr in enumerate(st.trace):
            assert (tr.item_index, tr.size) == (n, sizes[n])
            want = "nf" if tr.color == "tiny" else last.get(tr.bin_id, "-")
            assert tr.group_before == want, n
            assert tr.opened == (tr.bin_id not in last), n
            if tr.group_before not in ("-", tr.group_after):
                converted[tr.color, shape(tr.group_before), shape(tr.group_after)] += 1
            last[tr.bin_id] = tr.group_after
        red, blue = ("red", "(n,?)", "(n,n)"), ("blue", "(?,n)", "(n,n)")
        assert set(converted) == {red, blue}, converted  # each kind at least once

    def test_nothing_traced_unless_asked(self, table, monkeypatch):
        # untraced runs of the three packers build no trace row and name no
        # group; the patch is live, as the traced insert shows
        def refuse(*args, **kwargs):
            raise RuntimeError("trace record built")

        monkeypatch.setattr(superharmonic, "PlacementTrace", refuse)
        monkeypatch.setattr(superharmonic, "_group_name", refuse)
        with pytest.raises(RuntimeError, match="trace record built"):
            traced_insert(ShState(table), 0, 41, 100)
        rng = random.Random(14)
        sizes = [Fraction(rng.randint(1, 10 ** 6), 10 ** 6 * rng.choice((1, 50)))
                 for _ in range(2000)]
        st = ShState(table).pack(sizes)
        census = st.group_census()
        assert not hasattr(st, "trace") and census.nf_bins > 0 and census.pairs
        widths = [Fraction(rng.randint(1, 10 ** 6), 10 ** 6 * rng.choice((1, 10 ** 6)))
                  for _ in range(500)]
        rects = [Item2D(w, h) for w, h in zip(widths, sizes)]
        run = packed(TensorRun(table), rects)
        assert any(sl.width_type == table.k + 1 for sl in run.slices)
        assert validate_geometry(run) == []
        hp, bins = harmonic_bins(38, sizes)
        assert hp.cost == len(bins) > 0


class TestCostBound:
    def test_pure_type8_run_has_zero_slack(self, table):
        st = ShState(table)
        for _ in range(1000):
            st.insert(9, 20)
        rep = bound_check(st)
        assert rep.cost == 500 and rep.slack == 0

    def test_empty_run(self, table):
        rep = bound_check(ShState(table))
        assert rep.cost == 0 and rep.max_total == 0 and rep.slack == 0

    @pytest.mark.parametrize("seed,n", [(31, 1000), (32, 10000)])
    def test_cost_bound_random(self, table, seed, n):
        st = ShState(table)
        for s in grid_sizes(random.Random(seed), n):
            st.insert(s.numerator, s.denominator)
        rep = bound_check(st)
        assert rep.slack <= slack_allowance(table)
        assert rep.final_case_slack <= slack_allowance(table)
        assert rep.max_total >= rep.final_case_total


class TestAgainstOracle:
    @pytest.mark.parametrize("kind", ["uniform", "small", "on-breakpoint", "above-breakpoint",
                                      "above-ascending", "unreduced", "long"])
    @pytest.mark.parametrize("name", sorted(TABLES))
    def test_placements_and_state_equal_the_oracle(self, table, name, kind):
        table = table if TABLES[name] is None else harmonic_table(TABLES[name])
        st, oracle = Traced(ShState(table)), OracleShState(table, keep_trace=True)
        for n, (p, q) in enumerate(size_stream(table, kind, 1500, 3)):
            assert st.insert(p, q).bid == oracle.insert(p, q).bid, n
            assert st.trace[-1] == oracle.trace[-1], n
        assert (st.s, st.e) == (oracle.s, oracle.e)
        assert list(map(bin_state, st.bins)) == list(map(bin_state, oracle.bins))
        assert st.group_census() == oracle.group_census()
        assert st.final_case() == oracle.final_case()
        assert st.small_mass == oracle.small_mass
        assert st.check_feasibility() == oracle.check_feasibility() == []

    @pytest.mark.parametrize("kind", ["uniform", "small", "on-breakpoint", "unreduced"])
    @pytest.mark.parametrize("name", sorted(TABLES))
    def test_given_type_packs_as_classified(self, table, name, kind):
        # the 2D packer and traced_insert hand each item's type to insert,
        # which then skips classify; the given type must place exactly as the
        # classified one.  Both runs are traced: ``st`` drops the type that
        # traced_insert hands it, ``given`` uses it
        table = table if TABLES[name] is None else harmonic_table(TABLES[name])
        st, given = Traced(Classifying(table)), Traced(ShState(table))
        for n, (p, q) in enumerate(size_stream(table, kind, 800, 5)):
            assert st.insert(p, q).bid == given.insert(p, q).bid, n
        assert st.trace == given.trace
        assert list(map(bin_state, st.bins)) == list(map(bin_state, given.bins))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_audit_of_edited_bins_equals_the_oracle(self, table, seed):
        # the same seeded edits to the types, counts and sums of both runs'
        # bins and to their red counts break every rule; both audits must
        # name the same violations
        rng = random.Random(seed)
        sizes = [Fraction(p, q) for p, q in size_stream(table, "uniform", 1000, seed)
                 + size_stream(table, "small", 1000, seed)]
        st, oracle = ShState(table).pack(sizes), OracleShState(table).pack(sizes)
        assert st.group_census() == oracle.group_census()
        assert st.check_feasibility() == oracle.check_feasibility() == []
        for _ in range(300):
            bid, fields = rng.randrange(len(st.bins)), bin_edit(rng, table)
            for run in (st, oracle):
                for field, value in fields.items():
                    setattr(run.bins[bid], field, value)
        for i in rng.sample(range(1, table.k + 1), 3):
            st.e[i] += 1
            oracle.e[i] += 1
        bad = st.check_feasibility()
        assert bad == oracle.check_feasibility()
        for kind in ("red-count law", "content", "blues >", "blue mass", "reds >",
                     "red mass", "reserved space"):
            assert any(kind in line for line in bad), kind
