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


def harmonic_type(size: Fraction, k: int) -> int:
    """Type index in 1..k of an item of ``size`` (1/(i+1) < size <= 1/i)."""
    if not (0 < size <= 1):
        raise ValueError(f"item size {size} outside (0, 1]")
    if size * k <= 1:
        return k
    # floor(1/size); exact for Fraction input
    return size.denominator // size.numerator


def harmonic_weight(i: int, count: int, size_sum: Fraction, k: int) -> Fraction:
    """W_H of ``count`` type-i items of total size ``size_sum``: 1/i per
    item for i < k, k/(k-1) * ``size_sum`` for the tail type i = k."""
    if i < k:
        return Fraction(count, i)
    return Fraction(k, k - 1) * size_sum


def w_h(size: Fraction, k: int) -> Fraction:
    """Weight of an item: 1/i on (1/(i+1), 1/i], linear k/(k-1) on the tail."""
    return harmonic_weight(harmonic_type(size, k), 1, size, k)


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
        # per type i < k: (bin_id, item count); type k: (bin_id, content sum)
        self._open: dict = {}
        self._open_tiny = None
        self.closed_bins = [0] * (k + 1)
        self.closed_tiny_sums: list = []

    def _new_bin(self) -> int:
        bid = self.cost
        self.cost += 1
        return bid

    def insert(self, size: Fraction) -> int:
        """Place one item and return the id of the bin it went into."""
        i = harmonic_type(size, self.k)
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
            bid, filled = self._open_tiny
            if filled + size <= 1:
                self._open_tiny = (bid, filled + size)
                return bid
            self.closed_bins[self.k] += 1
            self.closed_tiny_sums.append(filled)
        bid = self._new_bin()
        self._open_tiny = (bid, size)
        return bid

    def pack(self, sizes) -> "HarmonicPacker":
        for s in sizes:
            self.insert(s)
        return self

    @property
    def open_bin_count(self) -> int:
        return len(self._open) + (self._open_tiny is not None)

    @property
    def total_weight(self) -> Fraction:
        """Summed W_H of the packed items, read from the bins: a closed
        type-i bin (i < k) holds i items, the type-k bins hold the tail."""
        k = self.k
        counts = [n * i for i, n in enumerate(self.closed_bins)]
        for i, (_, n) in self._open.items():
            counts[i] += n
        tail = sum(self.closed_tiny_sums, self._open_tiny[1] if self._open_tiny else 0)
        return sum((harmonic_weight(i, counts[i], 0, k) for i in range(1, k)),
                   harmonic_weight(k, 0, tail, k))

    def weight_slack(self) -> Fraction:
        """cost - total weight; at most k by the open-bin argument."""
        return self.cost - self.total_weight
