import cProfile
import fractions
import json
import pathlib
import random
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from harmonicpack.harmonic import HarmonicPacker
from harmonicpack.params import ParamTable, builtin_shplus
from harmonicpack.superharmonic import traced_insert
from harmonicpack.weighting import WeightFunctionSet

DATA = pathlib.Path(__file__).parent / "data"

# one pass/fail line per acceptance criterion, printed in the terminal
# summary so they survive pytest's output capture
CRITERION_LINES: list = []


def record_criterion(num: int, passed: bool, detail: str = ""):
    mark = "PASS" if passed else "FAIL"
    CRITERION_LINES.append(f"criterion {num}: {mark}{' - ' + detail if detail else ''}")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(CRITERION_LINES):
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def table():
    return builtin_shplus()


@pytest.fixture(scope="session")
def wset(table):
    return WeightFunctionSet(table)


@pytest.fixture(scope="session")
def reference_table():
    with open(DATA / "certificate_reference.json", "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    return {(e["i"], e["j"]): e for e in raw["entries"]}


def grid_sizes(rng: random.Random, n: int, den: int = 10 ** 6):
    return [Fraction(rng.randint(1, den), den) for _ in range(n)]


def harmonic_table(m):
    """K = 0, no reds, t_i = 1/i below m and eps = 1/m: Harmonic(m) as a table."""
    k = m - 1
    return ParamTable(
        k=k, K=0, t=(None, *(Fraction(1, i) for i in range(1, m + 1)), Fraction(0)),
        alpha=(None, *[Fraction(0)] * k), Delta=(Fraction(0),), phi=(None, *[0] * k))


@st.composite
def valid_tables(draw):
    """A ParamTable that ``validate`` accepts, drawn over the space of
    ROADMAP item 15: k in 3..12, K in 0..4 and eps = 1/M with M in 4..14;
    the breakpoints t[2..k] and the reserved spaces Delta[1..K] on the
    1/1000 grid; phi[i] among the spaces that fit delta[i]; and alpha[i] on
    the 1/1000 grid in [0, 0.4] where a red type-i item fits some space, 0
    elsewhere.  Tests draw from it with ``derandomize=True``."""
    k, K, m = draw(st.integers(3, 12)), draw(st.integers(0, 4)), draw(st.integers(4, 14))
    grid = st.integers(1000 // m + 1, 999)  # n/1000 in (1/m, 1)
    t = (None, Fraction(1),
         *(Fraction(n, 1000) for n in sorted(draw(st.lists(
             grid, min_size=k - 1, max_size=k - 1, unique=True)), reverse=True)),
         Fraction(1, m), Fraction(0))
    Delta = (Fraction(0), *(Fraction(n, 1000) for n in sorted(draw(st.lists(
        st.integers(1, 499), min_size=K, max_size=K, unique=True)))))
    alpha, phi = [None], [None]
    for i in range(1, k + 1):
        delta = 1 - t[i] * (1 // t[i])
        phi.append(draw(st.sampled_from([0, *(j for j in range(1, K + 1)
                                              if Delta[j] <= delta)])))
        red = any(t[i] <= Delta[j] for j in range(1, K + 1))
        alpha.append(Fraction(draw(st.integers(0, 400)), 1000) if red else Fraction(0))
    return ParamTable(k=k, K=K, t=t, alpha=tuple(alpha), Delta=Delta, phi=tuple(phi))


def move_column(sl, x: Fraction):
    """Put a slice's column at ``x``, keeping its width: the integer fields
    x_num and w_num over one denominator den."""
    wn, wd = sl.w_num, sl.den
    sl.x_num, sl.w_num, sl.den = x.numerator * wd, wn * x.denominator, x.denominator * wd


def class_value(run, w: Fraction) -> Fraction:
    """The slice class value of the width ``w`` in a TensorRun, as a Fraction."""
    return Fraction(*run.width_class(w.numerator, w.denominator)[1])


def sides_of(it) -> tuple:
    """(width, height) of the rectangle tuple ``it``, (wp, wq, hp, hq), as
    Fractions."""
    return Fraction(*it[:2]), Fraction(*it[2:])


def packed(run, rects):
    """The TensorRun ``run`` after inserting the rectangles ``rects`` in order."""
    for it in rects:
        run.insert(it)
    return run


class Traced:
    """An SH+ run whose items are placed by ``traced_insert``: ``insert``
    returns the item's bin, as ``ShState.insert`` does, and keeps the item's
    row in ``trace``; every other name is read from the run ``st``."""

    def __init__(self, st):
        self.st, self.trace = st, []

    def insert(self, p: int, q: int):
        self.trace.append(traced_insert(self.st, len(self.trace), p, q))
        return self.st.bins[self.trace[-1].bin_id]

    def pack(self, sizes) -> "Traced":
        for s in sizes:
            self.insert(s.numerator, s.denominator)
        return self

    def __getattr__(self, name):
        return getattr(self.st, name)


def harmonic_bins(k: int, sizes):
    """(packer, bins) after packing the Fraction ``sizes`` in order into a new
    HarmonicPacker(k): ``bins`` maps each bin id that ``insert`` returned to
    the sizes it went with, in order."""
    packer, bins = HarmonicPacker(k), {}
    for s in sizes:
        bins.setdefault(packer.insert(s.numerator, s.denominator), []).append(s)
    return packer, bins


def fraction_calls(names, fn, *args) -> int:
    """Calls of the ``fractions`` functions ``names`` while ``fn(*args)``
    runs, counted by cProfile."""
    prof = cProfile.Profile()
    prof.runcall(fn, *args)
    prof.create_stats()
    return sum(stat[1] for (path, _, name), stat in prof.stats.items()
               if path == fractions.__file__ and name in names)


def fraction_builds(fn, *args) -> int:
    """Fractions constructed while ``fn(*args)`` runs."""
    return fraction_calls(("__new__", "_from_coprime_ints"), fn, *args)


def fraction_comparisons(fn, *args) -> int:
    """Fraction order comparisons (<, <=, >, >=) made while ``fn(*args)`` runs."""
    return fraction_calls(("_richcmp",), fn, *args)
