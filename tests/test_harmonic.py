import random
from fractions import Fraction

import pytest

from harmonicpack.harmonic import HarmonicPacker, harmonic_type, w_h
from harmonicpack.params import exact_add
from harmonicpack.superharmonic import ShState

from conftest import fraction_builds, grid_sizes, harmonic_bins, harmonic_table


class OracleHarmonic:
    """Harmonic(k) as it was kept before the packer moved to per-type counts,
    the oracle of the rewrite: a dict of open (bin id, item count) per type,
    a census of closed bins and a Fraction per closed tail bin."""

    def __init__(self, k):
        self.k = k
        self.cost = 0
        self._open = {}
        self._open_tiny = None
        self.closed_bins = [0] * (k + 1)
        self.closed_tiny_sums = []

    def _new_bin(self):
        bid = self.cost
        self.cost += 1
        return bid

    def insert(self, p, q):
        i = harmonic_type(p, q, self.k)
        if i < self.k:
            slot = self._open.pop(i, None)
            bid, count = (self._new_bin(), 1) if slot is None else (slot[0], slot[1] + 1)
            if count == i:
                self.closed_bins[i] += 1
            else:
                self._open[i] = (bid, count)
            return bid
        if self._open_tiny is not None:
            bid, num, den = self._open_tiny
            filled = exact_add(num, den, p, q)
            if filled[0] <= filled[1]:
                self._open_tiny = (bid, *filled)
                return bid
            self.closed_bins[self.k] += 1
            self.closed_tiny_sums.append(Fraction(num, den))
        bid = self._new_bin()
        self._open_tiny = (bid, p, q)
        return bid

    @property
    def total_weight(self):
        k = self.k
        counts = [n * i for i, n in enumerate(self.closed_bins)]
        for i, (_, n) in self._open.items():
            counts[i] += n
        tail = sum(self.closed_tiny_sums,
                   Fraction(*self._open_tiny[1:]) if self._open_tiny else Fraction(0))
        return sum((Fraction(counts[i], i) for i in range(1, k)),
                   Fraction(k, k - 1) * tail)


def mixed_pairs(rng, n, k):
    """n size pairs (p, q), a third on the tail of Harmonic(k), a third scaled
    out of lowest terms (2/4 for 1/2)."""
    out = []
    for _ in range(n):
        q = 10 ** 6 * rng.choice((1, 1, k))
        scale = rng.choice((1, 2, 6))
        out.append((rng.randint(1, 10 ** 6) * scale, q * scale))
    return out


class TestTypeAndWeight:
    @pytest.mark.parametrize("size,k,want", [
        ("0.3", 38, Fraction(1, 3)),
        ("1", 38, Fraction(1)),
        ("0.5", 38, Fraction(1, 2)),
        ("1/3", 38, Fraction(1, 3)),
        ("0.01", 38, Fraction(38, 37) * Fraction(1, 100)),
        ("0.4", 3, Fraction(1, 2)),
    ])
    def test_weight_examples(self, size, k, want):
        assert w_h(Fraction(size), k) == want

    def test_type_boundaries(self):
        for i in range(1, 38):
            assert harmonic_type(1, i, 38) == harmonic_type(5, 5 * i, 38) == i
        assert harmonic_type(1, 38, 38) == 38
        assert harmonic_type(1, 1000, 38) == 38

    def test_domain(self):
        with pytest.raises(ValueError):
            w_h(Fraction(0), 38)
        with pytest.raises(ValueError):
            w_h(Fraction(2), 38)


class TestPacking:
    def test_k_above_a_million_is_refused(self):
        # refused before any per-type list is built: a huge k would
        # otherwise end in a MemoryError
        with pytest.raises(ValueError, match=r"^k must be at most 1000000$"):
            HarmonicPacker(10 ** 6 + 1)

    def test_two_large_items_two_bins(self):
        p = HarmonicPacker(3)
        a = p.insert(3, 5)
        cost = p.cost
        b = p.insert(3, 5)
        assert p.cost == 2 and a != b and p.cost > cost

    def test_type2_fill(self):
        # three items of 0.4: the first bin closes with 2, the second holds 1
        p, bins = harmonic_bins(3, [Fraction(2, 5)] * 3)
        assert p.cost == 2
        assert [len(b) for b in bins.values()] == [2, 1]

    def test_tiny_next_fit_exact_fill(self):
        # 100 exact hundredths sum to exactly 1 and share one bin; the
        # 101st does not fit and opens the second
        p, bins = harmonic_bins(38, [Fraction(1, 100)] * 100)
        assert p.cost == 1
        assert p.insert(1, 100) == 1 and p.cost == 2
        assert sum(bins[0]) == 1 > 1 - Fraction(1, 38)

    def test_closed_bin_census(self):
        # bins rebuilt from the ids insert returned: the ids are 0..cost-1,
        # and every bin of a type but its last is closed.  A closed type-i
        # bin (i < k) holds exactly i items, a closed tail bin is filled
        # above 1 - 1/k, and no bin holds more than 1
        for k in (2, 10, 38):
            sizes = [Fraction(*pq) for pq in mixed_pairs(random.Random(5), 4000, k)]
            p, bins = harmonic_bins(k, sizes)
            assert list(bins) == list(range(p.cost))
            per_type = {}
            for b in bins.values():
                per_type.setdefault(harmonic_type(b[0].numerator, b[0].denominator, k),
                                    []).append(b)
            assert per_type[k] and len(per_type) > 1
            for i, runs in per_type.items():
                assert all(harmonic_type(s.numerator, s.denominator, k) == i
                           for b in runs for s in b)
                assert all(sum(b) <= 1 for b in runs)
                if i < k:
                    assert all(len(b) == i for b in runs[:-1]) and len(runs[-1]) <= i
                else:
                    assert all(sum(b) > 1 - Fraction(1, k) for b in runs[:-1])

    def test_determinism(self):
        sizes = grid_sizes(random.Random(11), 2000)
        a, b = HarmonicPacker(38), HarmonicPacker(38)
        assert [a.insert(s.numerator, s.denominator) for s in sizes] == [b.insert(s.numerator, s.denominator) for s in sizes]
        assert a.cost == b.cost

    @pytest.mark.parametrize("k,seed,n", [(3, 0, 500), (10, 1, 2000), (38, 2, 5000)])
    def test_cost_bound(self, k, seed, n):
        # cost <= total weight + k (at most one open bin per type)
        p = HarmonicPacker(k)
        for s in grid_sizes(random.Random(seed), n):
            p.insert(s.numerator, s.denominator)
        assert p.cost <= p.total_weight + k

    @pytest.mark.parametrize("k", [2, 7, 38])
    def test_total_weight_is_sum_of_item_weights(self, k):
        # a third of the sizes fall on the tail; prefixes leave bins open
        rng = random.Random(k)
        sizes = [Fraction(rng.randint(1, 10 ** 6), 10 ** 6 * rng.choice((1, 1, k)))
                 for _ in range(3000)]
        p = HarmonicPacker(k)
        for n, s in enumerate(sizes, start=1):
            p.insert(s.numerator, s.denominator)
            if n in (1, 2, 17, 500, 2999, 3000):
                assert p.total_weight == sum((w_h(x, k) for x in sizes[:n]),
                                             Fraction(0)), n

    def test_cost_bound_adversarial(self):
        # items just above the reciprocals waste maximal space
        p = HarmonicPacker(38)
        levels = [(Fraction(1, b) + Fraction(1, 10 ** 6)).as_integer_ratio()
                  for b in (2, 3, 7, 43)]
        for i in range(4000):
            p.insert(*levels[i % 4])
        assert p.cost <= p.total_weight + 38


class TestAgainstOracle:
    @pytest.mark.parametrize("k", [2, 3, 7, 38])
    def test_ids_cost_and_weight_equal_the_oracle(self, k):
        pairs = mixed_pairs(random.Random(100 + k), 3000, k)
        p, oracle = HarmonicPacker(k), OracleHarmonic(k)
        assert p.total_weight == oracle.total_weight == 0
        for n, pq in enumerate(pairs, start=1):
            assert p.insert(*pq) == oracle.insert(*pq), n
            if n in (1, 2, 3, 41, 1000, 3000):
                assert (p.cost, p.total_weight) == (oracle.cost, oracle.total_weight), n
        assert oracle.closed_tiny_sums  # tail bins closed on the way
        assert p.weight_slack() == oracle.cost - oracle.total_weight

    @pytest.mark.parametrize("k", [3, 7, 38])
    def test_bins_equal_shplus_on_the_harmonic_table(self, k):
        # Harmonic(k) is SH+ on the table with no red items, t_i = 1/i and
        # eps = 1/k: both put every item in the same bin
        p, st = HarmonicPacker(k), ShState(harmonic_table(k))
        for n, pq in enumerate(mixed_pairs(random.Random(k), 20000, k)):
            assert p.insert(*pq) == st.insert(*pq).bid, n
        assert p.cost == st.cost

    def test_total_weight_builds_no_fraction_per_type(self):
        # five items, one on the tail, over a million types: the weight is
        # summed over the types that hold items; the oracle test above holds
        # it to the Fraction sum over every type at k = 2, 3, 7 and 38
        k = 10 ** 6
        sizes = grid_sizes(random.Random(5), 4) + [Fraction(1, 3 * k)]
        p, _ = harmonic_bins(k, sizes)
        assert fraction_builds(lambda: p.total_weight) < 10
        assert p.total_weight == sum(w_h(s, k) for s in sizes)

    def test_state_is_o_k(self):
        # 20,000 items, a third on the tail: no container the packer keeps
        # grows past one entry per type and one more
        k = 10
        p = HarmonicPacker(k)
        for pq in mixed_pairs(random.Random(9), 20000, k):
            p.insert(*pq)
        assert p.cost > 2000
        sizes = {name: len(v) for name, v in vars(p).items()
                 if isinstance(v, (list, tuple, dict, set))}
        assert sizes and max(sizes.values()) <= k + 1, sizes
