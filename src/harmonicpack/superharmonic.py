"""The Super-Harmonic online 1D bin packer.

Every item is classified by the parameter table; tail-type items go to a
Next Fit bin.  Any other type-i item is coloured: red while that keeps the
running red count at floor(alpha_i * s_i), blue otherwise.  A bin may hold
blue items of one type (up to beta) and red items of one other type (up to
gamma), the reds confined to the reserved space Delta[phi(blue type)].

Bins are named by what they hold:

  (i)    only blue type-i items, phi(i) = 0 -- never receives reds;
  (i,?)  only blue type-i items, phi(i) > 0 -- waiting for a red partner;
  (?,j)  only red type-j items -- waiting for a blue partner;
  (i,j)  blue type-i plus red type-j, gamma_j * t_j <= Delta[phi(i)].

Placement follows a fixed cascade.  A red type-i item goes into the bin
that already accepts type-i reds if one has room (there is at most one);
otherwise it converts the oldest blue-indeterminate bin whose reserved
space fits a full red load (scanning blue types in increasing order);
otherwise it opens a (?,i) bin.  A blue type-i item goes into the bin
accepting type-i blues if one has room; otherwise, when phi(i) = 0 it
opens a group (i) bin, and when phi(i) > 0 it converts the oldest
red-indeterminate bin whose red load fits Delta[phi(i)] (scanning red
types in increasing order) before opening an (i,?) bin.

The per-type "open" bin pointers are exact: a new bin is opened or
converted only when no existing bin has room for that colour and type, and
bins are filled oldest-first, so at most one bin per (type, colour) is ever
partially filled.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .params import ParamTable


class Bin:
    """One bin: blue items of one type and red items of another."""

    __slots__ = ("bid", "blue_type", "blue_count", "blue_sum",
                 "red_type", "red_count", "red_sum", "red_min")

    def __init__(self, bid: int):
        self.bid = bid
        self.blue_type: Optional[int] = None
        self.blue_count = 0
        self.blue_sum = Fraction(0)
        self.red_type: Optional[int] = None
        self.red_count = 0
        self.red_sum = Fraction(0)
        self.red_min: Optional[Fraction] = None

    def group(self, table: ParamTable) -> str:
        if self.blue_type is not None and self.red_type is not None:
            return f"({self.blue_type},{self.red_type})"
        if self.blue_type is not None:
            if table.phi[self.blue_type] == 0:
                return f"({self.blue_type})"
            return f"({self.blue_type},?)"
        if self.red_type is not None:
            return f"(?,{self.red_type})"
        return "nf"  # Next-Fit bins hold tail items only

    @property
    def content_sum(self) -> Fraction:
        return self.blue_sum + self.red_sum


@dataclass(frozen=True)
class PlacementTrace:
    """trace columns: item_index,size,type,color,group_before,group_after,bin_id,opened"""

    item_index: int
    size: Fraction
    type_index: int
    color: str  # "blue" | "red" | "tiny"
    group_before: str
    group_after: str
    bin_id: int
    opened: bool

    def csv_row(self) -> str:
        return (f"{self.item_index},{self.size},{self.type_index},{self.color},"
                f"{self.group_before},{self.group_after},{self.bin_id},"
                f"{int(self.opened)}")


@dataclass
class GroupCensus:
    blue_only: dict  # i -> count of (i) bins
    blue_indet: dict  # i -> count of (i,?) bins
    red_indet: dict  # j -> count of (?,j) bins
    pairs: dict  # (i, j) -> count of (i,j) bins
    items: list  # 1-based per-type item counts, index k+1 = tail count
    nf_bins: int
    cost: int


@dataclass
class FinalCase:
    """End-of-run classification by the leftover red-indeterminate bins."""

    E: int  # number of (?,.) bins
    r: Optional[int]  # type of the smallest red item in them
    j: Optional[int]  # index of the smallest space that red item fits
    case_id: int  # 1 if E == 0, else K+2-j (j >= 2) or K+1 (j == 1)
    smallest: Optional[Fraction]


class ShState:
    """Live packing state; single-writer, one instance per run."""

    def __init__(self, table: ParamTable, keep_trace: bool = False):
        self.table = table
        k = table.k
        self.s = [0] * (k + 1)  # items seen per type
        self.e = [0] * (k + 1)  # reds per type
        self.bins: list = []
        self.cost = 0
        self.n_items = 0  # items inserted so far
        self.small_count = 0
        self._nf_bin: Optional[Bin] = None
        self.nf_bins = 0
        self.keep_trace = keep_trace
        self.trace: list = []
        # at most one bin has room for each (type, colour)
        self._blue_open: list = [None] * (k + 1)
        self._red_open: list = [None] * (k + 1)
        # indeterminate pools, FIFO per type
        self._blue_indet: list = [None] + [deque() for _ in range(k)]  # (i,?) bins
        self._red_indet: list = [None] + [deque() for _ in range(k)]  # (?,j) bins
        # space needed for a full red load, per type
        self._red_space = [None] + [table.gamma[i] * table.t[i] for i in range(1, k + 1)]
        # red-convertible blue types (phi > 0) and red types (alpha > 0), ascending
        self._convertible_blue = [i for i in range(1, k + 1) if table.phi[i] > 0]
        self._red_types = [i for i in range(1, k + 1) if table.alpha[i] > 0]

    # -- bin bookkeeping ---------------------------------------------------

    def _open_bin(self) -> Bin:
        b = Bin(len(self.bins))
        self.bins.append(b)
        self.cost += 1
        return b

    def _add_blue(self, b: Bin, i: int, size: Fraction):
        b.blue_type = i
        b.blue_count += 1
        b.blue_sum += size
        if b.blue_count < self.table.beta[i]:
            self._blue_open[i] = b
        elif self._blue_open[i] is b:
            self._blue_open[i] = None

    def _add_red(self, b: Bin, i: int, size: Fraction):
        b.red_type = i
        b.red_count += 1
        b.red_sum += size
        if b.red_min is None or size < b.red_min:
            b.red_min = size
        if b.red_count < self.table.gamma[i]:
            self._red_open[i] = b
        elif self._red_open[i] is b:
            self._red_open[i] = None

    # -- the cascade ---------------------------------------------------------

    def insert(self, size: Fraction) -> PlacementTrace:
        table = self.table
        idx = self.n_items
        self.n_items += 1
        cost = self.cost
        i = table.classify(size)
        if i == table.k + 1:
            color = "tiny"
            b, before = self._insert_tiny(size)
        else:
            self.s[i] += 1
            if self.e[i] < int(table.alpha[i] * self.s[i]):
                self.e[i] += 1
                color = "red"
                b, before = self._insert_red(i, size)
            else:
                color = "blue"
                b, before = self._insert_blue(i, size)
        tr = PlacementTrace(idx, size, i, color, before, b.group(table), b.bid,
                            self.cost != cost)
        if self.keep_trace:
            self.trace.append(tr)
        return tr

    # Each placement helper returns (bin, group before the item), with "-"
    # when the item opened the bin (Next-Fit bins are always "nf").

    def _insert_tiny(self, size: Fraction):
        self.small_count += 1
        b = self._nf_bin
        if b is None or b.blue_sum + size > 1:
            b = self._nf_bin = self._open_bin()
            self.nf_bins += 1
        b.blue_sum += size  # content only; NF bins never join groups
        return b, "nf"

    def _insert_red(self, i: int, size: Fraction):
        table = self.table
        b = self._red_open[i]
        if b is None:
            # convert the oldest blue-indeterminate bin with enough reserved space
            need = self._red_space[i]
            for j in self._convertible_blue:
                pool = self._blue_indet[j]
                if pool and table.Delta[table.phi[j]] >= need:
                    b = pool.popleft()
                    break
        if b is not None:
            before = b.group(table)
            self._add_red(b, i, size)
            return b, before
        b = self._open_bin()
        self._add_red(b, i, size)
        self._red_indet[i].append(b)
        return b, "-"

    def _insert_blue(self, i: int, size: Fraction):
        table = self.table
        b = self._blue_open[i]
        if b is None and table.phi[i] > 0:
            # convert the oldest red-indeterminate bin whose reds fit our space
            space = table.Delta[table.phi[i]]
            for j in self._red_types:
                pool = self._red_indet[j]
                if pool and self._red_space[j] <= space:
                    b = pool.popleft()
                    break
        if b is not None:
            before = b.group(table)
            self._add_blue(b, i, size)
            return b, before
        b = self._open_bin()
        self._add_blue(b, i, size)
        if table.phi[i] > 0:
            self._blue_indet[i].append(b)
        return b, "-"

    def pack(self, sizes) -> "ShState":
        for s in sizes:
            self.insert(s)
        return self

    # -- inspection ----------------------------------------------------------

    @property
    def small_mass(self) -> Fraction:
        """Summed size of the tail items: the content of the Next-Fit bins."""
        return sum((b.blue_sum for b in self.bins
                    if b.blue_type is None and b.red_type is None), Fraction(0))

    def type_counts(self) -> list:
        counts = self.s[:]
        counts.append(self.small_count)
        return counts

    def group_census(self) -> GroupCensus:
        """Current group and item census, counted from the bins themselves."""
        blue_only: dict = {}
        blue_indet: dict = {}
        red_indet: dict = {}
        pairs: dict = {}
        nf_seen = 0
        for b in self.bins:
            if b.blue_type is None and b.red_type is None:
                nf_seen += 1
                continue
            if b.blue_type is not None and b.red_type is not None:
                key = (b.blue_type, b.red_type)
                pairs[key] = pairs.get(key, 0) + 1
            elif b.blue_type is not None:
                d = blue_only if self.table.phi[b.blue_type] == 0 else blue_indet
                d[b.blue_type] = d.get(b.blue_type, 0) + 1
            else:
                red_indet[b.red_type] = red_indet.get(b.red_type, 0) + 1
        assert nf_seen == self.nf_bins
        return GroupCensus(blue_only=blue_only, blue_indet=blue_indet,
                           red_indet=red_indet, pairs=pairs,
                           items=self.type_counts(), nf_bins=self.nf_bins,
                           cost=self.cost)

    def final_case(self) -> FinalCase:
        """Classify the finished packing by its red-indeterminate leftovers."""
        table = self.table
        E = 0
        smallest = None
        r = None
        for j in self._red_types:
            for b in self._red_indet[j]:
                E += 1
                if b.red_min is not None and (smallest is None or b.red_min < smallest):
                    smallest = b.red_min
                    r = b.red_type
        if E == 0:
            return FinalCase(E=0, r=None, j=None, case_id=1, smallest=None)
        j = table.varphi[r]
        case_id = table.K + 1 if j == 1 else table.K + 2 - j
        return FinalCase(E=E, r=r, j=j, case_id=case_id, smallest=smallest)

    def open_bin_like_count(self) -> int:
        """Bins that are neither blue-full nor red-full (plus the NF bin)."""
        n = sum(1 for b in self._blue_open if b is not None)
        n += sum(1 for b in self._red_open if b is not None)
        return n + (self._nf_bin is not None)

    def check_feasibility(self) -> list:
        """Red-count, capacity and reserved-space violations of the run."""
        table = self.table
        bad = [f"type {i}: red-count law broken" for i in range(1, table.k + 1)
               if self.e[i] != int(table.alpha[i] * self.s[i])]
        for b in self.bins:
            if b.content_sum > 1:
                bad.append(f"bin {b.bid}: content {b.content_sum} > 1")
            if b.blue_type is not None:
                i = b.blue_type
                if b.blue_count > table.beta[i]:
                    bad.append(f"bin {b.bid}: {b.blue_count} blues > beta[{i}]")
                if b.blue_sum > table.beta[i] * table.t[i]:
                    bad.append(f"bin {b.bid}: blue mass over beta*t for type {i}")
            if b.red_type is not None:
                jj = b.red_type
                if b.red_count > table.gamma[jj]:
                    bad.append(f"bin {b.bid}: {b.red_count} reds > gamma[{jj}]")
                if b.red_sum > self._red_space[jj]:
                    bad.append(f"bin {b.bid}: red mass over gamma*t for type {jj}")
            if b.blue_type is not None and b.red_type is not None:
                need = self._red_space[b.red_type]
                if need > table.Delta[table.phi[b.blue_type]]:
                    bad.append(f"bin {b.bid}: red load does not fit reserved space")
        return bad
