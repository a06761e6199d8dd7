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
types in increasing order) before opening an (i,?) bin.  Both colours and
Next Fit share that last step, convert or else open, in ``ShState._claim``:
it is the one place where a bin enters use or changes group.

The scans depend on the table alone, so ``ShState`` builds them once, as a
plan entry per type i: the blue-indeterminate pools a red type-i item may
convert and the red-indeterminate pools a blue type-i item may convert, each
in the ascending order above, chosen by comparing reserved spaces and red
loads as integers over one denominator.  An item then tests only whether
each pool in its list is empty; the scan order and the cascade are those
described here.

The per-type "open" bin pointers are exact: a new bin is opened or
converted only when no existing bin has room for that colour and type, and
bins are filled oldest-first, so at most one bin per (type, colour) is ever
partially filled.

The bins and the red-indeterminate pools are the only record of a run.
The cost is the number of bins, the Next-Fit bins are those with neither a
blue nor a red type, and the tail count is the summed ``blue_count`` of the
Next-Fit bins.  The final case is read from the pools: type intervals shrink
as the index grows, so the smallest leftover red item is in the pool of the
largest type that still has a (?,j) bin, and with j = varphi of that type
the case is K+2-j (case K+1 is j = 1).

An item arrives as an integer pair (p, q) of size p/q, and
``ShState.insert`` types it by ``ParamTable.classify``.  Per item, the
red-count law is a_num*s // a_den (alpha = a_num/a_den) and a bin's sums
are integer numerators over the lcm of their items' denominators.
``ShState.insert`` returns the bin the item went into and keeps no record of
it; ``traced_insert`` alone builds a ``PlacementTrace`` row, with the item's
Fraction and its group names, for a caller that asks for one.
"""

from __future__ import annotations

from collections import Counter, deque, namedtuple
from fractions import Fraction
from math import lcm

from .params import ParamTable, exact_add, named, on_one_denominator


def _group_name(table: ParamTable, blue: int | None, red: int | None) -> str:
    """Name of the group of a bin holding blue type ``blue`` and red type ``red``."""
    if blue is not None and red is not None:
        return f"({blue},{red})"
    if blue is not None:
        return f"({blue})" if table.phi[blue] == 0 else f"({blue},?)"
    if red is not None:
        return f"(?,{red})"
    return "nf"  # Next-Fit bins hold tail items only


class Bin:
    """One bin: blue items of one type and red items of another."""

    __slots__ = ("bid", "blue_type", "blue_count", "blue_num", "blue_den",
                 "red_type", "red_count", "red_num", "red_den")

    def __init__(self, bid: int):
        self.bid = bid
        self.blue_type: int | None = None
        self.blue_count = 0
        self.red_type: int | None = None
        self.red_count = 0
        self.blue_num = self.red_num = 0  # blue_sum is blue_num / blue_den
        self.blue_den = self.red_den = 1

    blue_sum = property(lambda self: Fraction(self.blue_num, self.blue_den))
    red_sum = property(lambda self: Fraction(self.red_num, self.red_den))
    content_sum = property(lambda self: self.blue_sum + self.red_sum)


class PlacementTrace(namedtuple("PlacementTrace", [
        "item_index",
        "size",
        "type_index",
        "color",  # "blue" | "red" | "tiny"
        "group_before",
        "group_after",
        "bin_id",
        "opened",
])):
    """One item's row of the placement trace, as ``traced_insert`` builds it."""

    __slots__ = ()

    CSV_HEADER = "item_index,size,type,color,group_before,group_after,bin_id,opened"

    def csv_row(self) -> str:
        return ",".join(map(str, self[:-1])) + f",{int(self.opened)}"


GroupCensus = namedtuple("GroupCensus", [
    "blue_only",  # i -> count of (i) bins
    "blue_indet",  # i -> count of (i,?) bins
    "red_indet",  # j -> count of (?,j) bins
    "pairs",  # (i, j) -> count of (i,j) bins
    "nf_bins",
    "cost",
])


class FinalCase(namedtuple("FinalCase", [
        "E",  # number of (?,.) bins: the summed pool lengths
        "r",  # type of the smallest red item in them: the largest type whose
        #       pool is not empty
        "j",  # index of the smallest space that red item fits
        "case_id",  # 1 if E == 0, else K+2-j (K+1 when j == 1)
])):
    """End-of-run classification, read from the red-indeterminate pools."""

    __slots__ = ()


class ShState:
    """Live packing state; single-writer, one instance per run."""

    def __init__(self, table: ParamTable):
        self.table = table
        k, K, phi, gamma = table.k, table.K, table.phi, table.gamma
        self.s = [0] * (k + 1)  # items seen per type
        self.e = [0] * (k + 1)  # reds per type
        self.bins: list = []
        self._nf_bin: Bin | None = None
        # at most one bin has room for each (type, colour)
        self._blue_open: list = [None] * (k + 1)
        self._red_open: list = [None] * (k + 1)
        # indeterminate pools, FIFO per type: (i,?) bins where phi(i) > 0, (?,j) bins
        types = range(1, k + 1)
        blue_indet = [None] + [deque() if phi[i] else None for i in types]
        self._red_indet: list = [None] + [deque() for _ in types]
        # t_i, Delta[phi(i)] and a full red load gamma_i*t_i as integers over
        # one denominator, for the plan and check_feasibility
        self._den, nums = on_one_denominator(table.Delta + table.t[1:k + 1])
        self._t = t = [None, *nums[K + 1:]]
        self._space = space = [None] + [nums[phi[i]] for i in types]
        self._red_load = load = [None] + [gamma[i] * t[i] for i in types]
        convertible = [j for j in types if phi[j]]
        red_types = [j for j in types if table.alpha[j]]
        # per type i: alpha_i as (a_num, a_den), beta_i, gamma_i, the (i,?)
        # pools a red item may convert and the (?,j) pools a blue item may
        # convert, each in the cascade's ascending scan order, and its own
        # two pools; None for the tail type
        self._plan = [None, *((
            *table.alpha[i].as_integer_ratio(), table.beta[i], gamma[i],
            [blue_indet[j] for j in convertible if space[j] >= load[i]],
            [self._red_indet[j] for j in red_types if load[j] <= space[i]]
            if phi[i] else [],
            blue_indet[i], self._red_indet[i]) for i in types), None]

    # -- the cascade ---------------------------------------------------------

    def _claim(self, scan, pool) -> Bin:
        """The bin an item enters when no open bin of its colour and type has
        room: the oldest bin of the first non-empty pool in ``scan``, which the
        item converts, or else a new bin, queued in ``pool`` unless it is None.
        Every bin enters use or changes group here."""
        for convertible in scan:
            if convertible:
                return convertible.popleft()
        b = Bin(len(self.bins))
        self.bins.append(b)
        if pool is not None:
            pool.append(b)
        return b

    def insert(self, p: int, q: int, i: int | None = None) -> Bin:
        """Place one item of size p/q (q > 0, not necessarily in lowest terms)
        and return the bin it went into.  ``i``, if given, is its type, as
        ``classify(p, q)`` gives it; a caller that knows the type skips the
        typing."""
        if i is None:
            i = self.table.classify(p, q)
        plan = self._plan[i]
        if plan is None:
            b = self._nf_bin
            if b is None or b.blue_num * q + p * b.blue_den > b.blue_den * q:
                b = self._nf_bin = self._claim((), None)
            b.blue_count += 1  # content only; NF bins never join groups
            b.blue_num, b.blue_den = exact_add(b.blue_num, b.blue_den, p, q)
        else:
            a_num, a_den, beta, gamma, red_scan, blue_scan, blue_pool, red_pool = plan
            s = self.s[i] = self.s[i] + 1
            if self.e[i] < a_num * s // a_den:
                self.e[i] += 1
                b = self._red_open[i]
                if b is None:  # convert the oldest (j,?) bin that fits, or open one
                    b = self._claim(red_scan, red_pool)
                    b.red_type = i
                b.red_count += 1
                self._red_open[i] = b if b.red_count < gamma else None
                num, den = b.red_num, b.red_den  # exact_add, in line
                if den % q:
                    m = lcm(den, q)
                    num, den = num * (m // den), m
                b.red_num, b.red_den = num + p * (den // q), den
            else:
                b = self._blue_open[i]
                if b is None:  # convert the oldest (?,j) bin that fits, or open one
                    b = self._claim(blue_scan, blue_pool)
                    b.blue_type = i
                b.blue_count += 1
                self._blue_open[i] = b if b.blue_count < beta else None
                num, den = b.blue_num, b.blue_den
                if den % q:
                    m = lcm(den, q)
                    num, den = num * (m // den), m
                b.blue_num, b.blue_den = num + p * (den // q), den
        return b

    def pack(self, sizes) -> "ShState":
        """Insert the Fractions ``sizes`` in order."""
        for s in sizes:
            self.insert(s.numerator, s.denominator)
        return self

    # -- inspection: read from the bins ---------------------------------------

    @property
    def cost(self) -> int:
        return len(self.bins)

    @property
    def small_mass(self) -> Fraction:
        """Summed size of the tail items: the content of the Next-Fit bins,
        which have neither a blue nor a red type."""
        return sum((b.blue_sum for b in self.bins
                    if b.blue_type is None and b.red_type is None), Fraction(0))

    def group_census(self) -> GroupCensus:
        """Current group census, counted from each bin's (blue, red) type pair."""
        count = Counter((b.blue_type, b.red_type) for b in self.bins)
        phi = self.table.phi
        blue = [(i, n) for (i, j), n in count.items() if i is not None and j is None]
        return GroupCensus(blue_only={i: n for i, n in blue if not phi[i]},
                           blue_indet={i: n for i, n in blue if phi[i]},
                           red_indet={j: n for (i, j), n in count.items()
                                      if i is None and j is not None},
                           pairs={ij: n for ij, n in count.items() if None not in ij},
                           nf_bins=count[None, None], cost=self.cost)

    def final_case(self) -> FinalCase:
        """Classify the finished packing by its red-indeterminate leftovers."""
        pools = self._red_indet  # a red-free type's pool stays empty
        E = sum(map(len, pools[1:]))
        if E == 0:
            return FinalCase(E=0, r=None, j=None, case_id=1)
        r = max(i for i in range(1, len(pools)) if pools[i])
        j = self.table.varphi[r]
        return FinalCase(E=E, r=r, j=j, case_id=self.table.K + 2 - j)

    def check_feasibility(self) -> list:
        """Red-count, capacity and reserved-space violations of the run, read
        from each bin's current types; the caps beta*t and gamma*t and the
        spaces Delta[phi] are integers over one denominator."""
        table, plan, den = self.table, self._plan, self._den
        space, red_cap = self._space, self._red_load
        bad = [f"type {i}: red-count law broken" for i in range(1, table.k + 1)
               if self.e[i] != plan[i][0] * self.s[i] // plan[i][1]]
        blue_cap = [None] + [table.beta[i] * self._t[i] for i in range(1, table.k + 1)]
        for b in self.bins:
            i, j = b.blue_type, b.red_type
            if b.blue_num * b.red_den + b.red_num * b.blue_den > b.blue_den * b.red_den:
                content = b.content_sum.as_integer_ratio()
                bad.append(f"bin {b.bid}: {named(*content, 'content')} > 1")
            if i is not None:
                if b.blue_count > table.beta[i]:
                    bad.append(f"bin {b.bid}: {b.blue_count} blues > beta[{i}]")
                if b.blue_num * den > blue_cap[i] * b.blue_den:
                    bad.append(f"bin {b.bid}: blue mass over beta*t for type {i}")
            if j is not None:
                if b.red_count > table.gamma[j]:
                    bad.append(f"bin {b.bid}: {b.red_count} reds > gamma[{j}]")
                if b.red_num * den > red_cap[j] * b.red_den:
                    bad.append(f"bin {b.bid}: red mass over gamma*t for type {j}")
                if i is not None and red_cap[j] > space[i]:
                    bad.append(f"bin {b.bid}: red load does not fit reserved space")
        return bad


def traced_insert(st: ShState, index: int, p: int, q: int) -> PlacementTrace:
    """Place item number ``index``, of size p/q, in ``st`` and return its trace
    row: red when its type's red count rose, tiny when it is of the tail type."""
    i = st.table.classify(p, q)
    tail = i > st.table.k
    reds = 0 if tail else st.e[i]
    b = st.insert(p, q, i)
    color = "tiny" if tail else "red" if st.e[i] > reds else "blue"
    # b's group before the item lacks the item's colour if it is the first of it
    blue = None if color == "blue" and b.blue_count == 1 else b.blue_type
    red = None if color == "red" and b.red_count == 1 else b.red_type
    opened = b.blue_count + b.red_count == 1  # sizes are positive: b holds only it
    before = "-" if opened and not tail else _group_name(st.table, blue, red)
    after = _group_name(st.table, b.blue_type, b.red_type)
    return PlacementTrace(index, Fraction(p, q), i, color, before, after, b.bid, opened)
