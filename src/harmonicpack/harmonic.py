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

from .params import exact_add


def harmonic_type(p: int, q: int, k: int) -> int:
    """Type index in 1..k of an item of size x = p/q (q > 0, not necessarily
    in lowest terms): the i with 1/(i+1) < x <= 1/i, or k for x <= 1/k."""
    if not 0 < p <= q:
        raise ValueError(f"item size {Fraction(p, q)} outside (0, 1]")
    return k if p * k <= q else q // p  # floor(1/size)


def harmonic_weight(i: int, count: int, size_sum: Fraction, k: int) -> Fraction:
    """W_H of ``count`` type-i items of total size ``size_sum``: 1/i per
    item for i < k, k/(k-1) * ``size_sum`` for the tail type i = k."""
    if i < k:
        return Fraction(count, i)
    return Fraction(k, k - 1) * size_sum


def w_h(size: Fraction, k: int) -> Fraction:
    """Weight of an item: 1/i on (1/(i+1), 1/i], linear k/(k-1) on the tail."""
    return harmonic_weight(harmonic_type(size.numerator, size.denominator, k),
                           1, size, k)


def height_index(eps: Fraction) -> int:
    """The Harmonic index 1/eps at which a table's heights are stacked and
    weighted; it must be an integer."""
    if eps.numerator != 1:
        raise ValueError("1/eps must be an integer for the height weighting")
    return eps.denominator


class HarmonicPacker:
    """Online Harmonic(k) packing state.

    One packer per run; replaying the same item sequence reproduces the
    same bins.  ``closed_bins[i]`` counts closed type-i bins;
    ``closed_tiny_sums`` records the content of every closed type-k bin
    (used by the census checks and by :attr:`total_weight`).
    """

    def __init__(self, k: int):
        if k < 2:
            raise ValueError("k must be at least 2")
        self.k = k
        self.cost = 0
        # per type i < k: (bin_id, item count); type k: (bin_id, fill num, den)
        self._open: dict = {}
        self._open_tiny = None
        self.closed_bins = [0] * (k + 1)
        self.closed_tiny_sums: list = []

    def _new_bin(self) -> int:
        bid = self.cost
        self.cost += 1
        return bid

    def insert(self, p: int, q: int) -> int:
        """Place one item of size p/q and return the id of the bin it went into."""
        i = harmonic_type(p, q, self.k)
        if i < self.k:
            slot = self._open.pop(i, None)
            bid, count = (self._new_bin(), 1) if slot is None else (slot[0], slot[1] + 1)
            if count == i:
                self.closed_bins[i] += 1
            else:
                self._open[i] = (bid, count)
            return bid
        # Next Fit on the tiny type
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

    def pack(self, sizes) -> "HarmonicPacker":
        """Insert the Fractions ``sizes`` in order."""
        for s in sizes:
            self.insert(s.numerator, s.denominator)
        return self

    @property
    def total_weight(self) -> Fraction:
        """Summed W_H of the packed items, read from the bins: a closed
        type-i bin (i < k) holds i items, the type-k bins hold the tail."""
        k = self.k
        counts = [n * i for i, n in enumerate(self.closed_bins)]
        for i, (_, n) in self._open.items():
            counts[i] += n
        tail = sum(self.closed_tiny_sums,
                   Fraction(*self._open_tiny[1:]) if self._open_tiny else 0)
        return sum((harmonic_weight(i, counts[i], 0, k) for i in range(1, k)),
                   harmonic_weight(k, 0, tail, k))

    def weight_slack(self) -> Fraction:
        """cost - total weight; at most k by the open-bin argument."""
        return self.cost - self.total_weight
