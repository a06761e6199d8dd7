"""The classic Harmonic(k) online 1D bin packer and its weighting function.

Items are classified by size: type i covers the interval (1/(i+1), 1/i] for
i < k, and everything at or below 1/k is type k.  Each type is packed by
Next Fit into bins dedicated to that type, so at most one bin per type is
open at any time; a closed type-i bin (i < k) holds exactly i items, and a
closed type-k bin is filled above 1 - 1/k.

The weighting function charges 1/i to a type-i item (i < k) and
(k/(k-1)) * x to a tiny item of size x; the packer's cost never exceeds the
total charge plus k (one open bin per type).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from math import lcm

from .params import exact_add, named

_MAX_K = 10 ** 6  # the largest Harmonic index a packer accepts


def harmonic_type(p: int, q: int, k: int) -> int:
    """Type index in 1..k of an item of size x = p/q (q > 0, not necessarily
    in lowest terms): the i with 1/(i+1) < x <= 1/i, or k for x <= 1/k."""
    if not 0 < p <= q:
        raise ValueError(f"{named(p, q, 'item size')} outside (0, 1]")
    return k if p * k <= q else q // p  # floor(1/size)


def w_h(size: Fraction, k: int) -> Fraction:
    """Weight of an item: 1/i on (1/(i+1), 1/i], linear k/(k-1) on the tail."""
    p, q = size.numerator, size.denominator
    i = harmonic_type(p, q, k)
    return Fraction(1, i) if i < k else Fraction(k * p, (k - 1) * q)


def height_index(eps: Fraction) -> int:
    """The Harmonic index 1/eps at which a table's heights are stacked and
    weighted; it must be an integer."""
    if eps.numerator != 1:
        raise ValueError("1/eps must be an integer for the height weighting")
    return eps.denominator


class HarmonicPacker:
    """Online Harmonic(k) packing state, O(k) in size, for 2 <= k <= 10**6.

    One packer per run; replaying the same item sequence reproduces the
    same bins.  ``count[i]`` is the number of type-i items (i < k) so far: a
    type-i bin opens at every i-th of them, whose id ``_bin[i]`` the next
    i - 1 share.  The tail type packs by Next Fit on integers: its open bin
    is (bin id, fill num, den), and the content of its closed bins is one
    integer pair.
    """

    def __init__(self, k: int):
        if k < 2:
            raise ValueError("k must be at least 2")
        if k > _MAX_K:  # refused before the two lists of k counters are built
            raise ValueError(f"k must be at most {_MAX_K}")
        self.k = k
        self.cost = 0
        self.count = [0] * k
        self._bin = [0] * k
        self._open_tiny = None
        self._closed_tail = (0, 1)

    def insert(self, p: int, q: int) -> int:
        """Place one item of size p/q and return the id of the bin it went into."""
        i = harmonic_type(p, q, self.k)
        if i < self.k:
            n = self.count[i]
            self.count[i] = n + 1
            if n % i:
                return self._bin[i]
            bid = self._bin[i] = self.cost
            self.cost += 1
            return bid
        # Next Fit on the tiny type
        if self._open_tiny is not None:
            bid, num, den = self._open_tiny
            filled = exact_add(num, den, p, q)
            if filled[0] <= filled[1]:
                self._open_tiny = (bid, *filled)
                return bid
            self._closed_tail = exact_add(*self._closed_tail, num, den)
        bid = self.cost
        self.cost += 1
        self._open_tiny = (bid, p, q)
        return bid

    @property
    def total_weight(self) -> Fraction:
        """Summed W_H of the packed items: 1/i per type-i item (i < k) and
        k/(k-1) times the tail's content, closed bins and open one, summed on
        one integer denominator over the types that hold items."""
        k, count = self.k, self.count
        num, den = self._closed_tail
        if self._open_tiny is not None:
            num, den = exact_add(num, den, *self._open_tiny[1:])
        held = list(compress(range(k), count))
        total = lcm((k - 1) * den, *held)
        return Fraction(sum(count[i] * (total // i) for i in held)
                        + k * num * (total // ((k - 1) * den)), total)

    def weight_slack(self) -> Fraction:
        """cost - total weight; at most k by the open-bin argument."""
        return self.cost - self.total_weight
