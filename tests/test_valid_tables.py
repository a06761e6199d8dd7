"""Properties of the code that must hold for any table ``validate`` accepts,
checked on tables drawn by ``valid_tables`` as well as on the built-in table
and a Harmonic table: the drawn table validates, ``classify`` counts the
breakpoints below a size exactly, and an SH+ run keeps every capacity,
red-count and reserved-space rule."""

from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from harmonicpack.params import builtin_shplus, validate
from harmonicpack.superharmonic import ShState

from conftest import harmonic_table, valid_tables

PROPERTY = settings(max_examples=100, derandomize=True, database=None, deadline=None)

# sizes p/q in (0, 1], on decimal grids that hit the breakpoints and on
# arbitrary denominators that do not
sizes = st.lists(
    st.one_of(st.sampled_from([1000, 2000, 10 ** 6]), st.integers(1, 10 ** 12))
    .flatmap(lambda q: st.tuples(st.integers(1, q), st.just(q))), max_size=200)


@given(valid_tables())
@example(builtin_shplus())
@example(harmonic_table(7))
@PROPERTY
def test_drawn_tables_validate(table):
    assert validate(table) == []


@given(valid_tables(), sizes, st.integers(1, 10 ** 9))
@example(builtin_shplus(), [], 3)
@example(harmonic_table(7), [], 3)
@PROPERTY
def test_classify_counts_the_breakpoints_below(table, drawn, m):
    # drawn sizes, and every breakpoint t[1..k+1] and 1/q either side of it,
    # on t's own denominator and on m times it
    breaks = table.t[2:table.k + 2]
    at = [(tn * f + d, td * f) for tn, td in map(Fraction.as_integer_ratio, table.t[1:table.k + 2])
          for f in (1, m) for d in (-1, 0, 1)]
    for p, q in drawn + [(p, q) for p, q in at if 0 < p <= q]:
        want = table.k + 1 - sum(t < Fraction(p, q) for t in breaks)
        assert table.classify(p, q) == want, (p, q)


@given(valid_tables(), sizes)
@example(builtin_shplus(), [(1, 3), (353, 1000), (1, 38)] * 20)
@PROPERTY
def test_sh_runs_are_feasible(table, drawn):
    st_ = ShState(table)
    for p, q in drawn:
        st_.insert(p, q)
    assert st_.check_feasibility() == []
