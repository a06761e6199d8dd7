import random
from fractions import Fraction

import pytest

from harmonicpack.harmonic import HarmonicPacker, harmonic_type, w_h

from conftest import grid_sizes


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
    def test_two_large_items_two_bins(self):
        p = HarmonicPacker(3)
        a = p.insert(3, 5)
        cost = p.cost
        b = p.insert(3, 5)
        assert p.cost == 2 and a != b and p.cost > cost

    def test_type2_fill(self):
        # three items of 0.4: first bin closes with 2, second holds 1
        p = HarmonicPacker(3)
        recs = [p.insert(2, 5) for _ in range(3)]
        assert p.cost == 2
        assert recs[0] == recs[1] != recs[2]
        assert p.closed_bins[2] == 1

    def test_tiny_next_fit_exact_fill(self):
        # 100 exact hundredths sum to exactly 1 and share one bin; the
        # 101st does not fit and opens the second
        p = HarmonicPacker(38)
        for _ in range(100):
            p.insert(1, 100)
        assert p.cost == 1
        p.insert(1, 100)
        assert p.cost == 2
        assert p.closed_tiny_sums == [Fraction(1)]
        assert p.closed_tiny_sums[0] > 1 - Fraction(1, 38)

    def test_closed_bin_census(self):
        rng = random.Random(5)
        p = HarmonicPacker(10)
        per_type = [0] * 11
        for s in grid_sizes(rng, 4000):
            per_type[harmonic_type(s.numerator, s.denominator, 10)] += 1
        p2 = HarmonicPacker(10)
        open_count = {}
        for s in grid_sizes(random.Random(5), 4000):
            p2.insert(s.numerator, s.denominator)
        # closed type-i bins hold exactly i items; the remainder sits in
        # the (single) open bin of that type
        for i in range(1, 10):
            leftover = per_type[i] - p2.closed_bins[i] * i
            assert 0 <= leftover < i

    def test_determinism(self):
        sizes = grid_sizes(random.Random(11), 2000)
        a, b = HarmonicPacker(38), HarmonicPacker(38)
        assert [a.insert(s.numerator, s.denominator) for s in sizes] == [b.insert(s.numerator, s.denominator) for s in sizes]
        assert HarmonicPacker(38).pack(sizes).cost == a.cost == b.cost

    @pytest.mark.parametrize("k,seed,n", [(3, 0, 500), (10, 1, 2000), (38, 2, 5000)])
    def test_cost_bound(self, k, seed, n):
        # cost <= total weight + k (at most one open bin per type)
        p = HarmonicPacker(k)
        for s in grid_sizes(random.Random(seed), n):
            p.insert(s.numerator, s.denominator)
        assert p.cost <= p.total_weight + k
        assert p.cost - sum(p.closed_bins) <= k  # the open bins

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
