"""Acceptance gate: one test per criterion, each printing a pass/fail line.

The 1D property suite (criteria 5, 6, 8) shares one set of >= 200 packing
runs across sizes 10^3..10^5; the certificate criteria (1, 2, 9) share the
two certificate computations.  Two tests are expected to stay red on
reference-data defects that the decisions ledger documents in detail:

  * criterion 1: six of the 98 published table values carry last-digit
    noise from the reference pipeline's binary arithmetic at exact
    decimal-half data values; no uniform rounding rule reproduces them.
  * criterion 4: one published compound cut excludes genuine patterns
    (counterexample inside), so a correct validator cannot pass it.
"""

import random
import time
from dataclasses import dataclass
from fractions import Fraction

import pytest

from harmonicpack.boundcert import (LinearCut, PiecewiseFn,
                                    TUNED_LAMBDA, brute_force_max,
                                    builtin_model_constraints, cut_max_lhs,
                                    pattern_max, ratio_certificate, round6,
                                    shplus_pattern_model, validate_cut)
from harmonicpack.harmonic import HarmonicPacker
from harmonicpack.pack2d import Item2D, tensor_cost, validate_geometry
from harmonicpack.superharmonic import ShState
from harmonicpack.weighting import bound_check, slack_allowance

from conftest import grid_sizes, record_criterion

TOL = Fraction(5, 10 ** 7)


# -- shared 1D instance suite (criteria 5, 6, 8) -----------------------------

def _suite_sizes(table, kind, n, seed):
    # string seeding is deterministic across processes (unlike tuple hash)
    rng = random.Random(f"{kind}/{n}/{seed}")
    eta = Fraction(1, 10 ** 6)
    if kind == "uniform":
        return grid_sizes(rng, n)
    if kind == "sylvester":
        levels = [Fraction(1, b) + eta for b in (2, 3, 7, 43)]
        return [levels[i % 4] for i in range(n)]
    if kind == "breakpoints":
        levels = [table.t[i + 1] + eta for i in range(1, table.k + 1)]
        return [levels[i % table.k] for i in range(n)]
    if kind == "red-heavy":
        reds = [i for i in range(1, table.k + 1) if table.alpha[i] > 0]
        levels = [table.t[i + 1] + eta for i in reds]
        return [levels[rng.randrange(len(levels))] for _ in range(n)]
    if kind == "tiled":
        items = [Fraction("0.51"), Fraction("0.49")] * (n // 2)
        rng.shuffle(items)
        return items
    raise ValueError(kind)


_SUITE_PLAN = (
    [(1000, "uniform", s) for s in range(120)]
    + [(1000, "sylvester", s) for s in range(12)]
    + [(1000, "breakpoints", s) for s in range(12)]
    + [(1000, "red-heavy", s) for s in range(16)]
    + [(1000, "tiled", s) for s in range(12)]
    + [(10000, "uniform", s) for s in range(14)]
    + [(10000, "sylvester", s) for s in range(2)]
    + [(10000, "breakpoints", s) for s in range(2)]
    + [(10000, "red-heavy", s) for s in range(4)]
    + [(10000, "tiled", s) for s in range(2)]
    + [(100000, "uniform", s) for s in range(2)]
    + [(100000, "sylvester", 0), (100000, "breakpoints", 0),
       (100000, "red-heavy", 0), (100000, "tiled", 0)]
)


@dataclass
class RunRecord:
    n: int
    kind: str
    slack: Fraction
    final_slack: Fraction
    case_id: int
    counter_law_ok: bool
    feasibility: list
    struct_zero_ok: bool
    harmonic_slack: Fraction


@pytest.fixture(scope="module")
def one_d_suite(table, wset):
    records = []
    allowance = slack_allowance(table)
    for n, kind, seed in _SUITE_PLAN:
        sizes = _suite_sizes(table, kind, n, seed)
        st = ShState(table)
        law_ok = True
        for s in sizes:
            st.insert(s.numerator, s.denominator)
            i = table.classify(s.numerator, s.denominator)
            # the inserted type is the only counter that may move, so
            # checking it each step verifies the law after every insertion
            if i <= table.k and st.e[i] != int(table.alpha[i] * st.s[i]):
                law_ok = False
        law_ok = law_ok and all(
            st.e[i] == int(table.alpha[i] * st.s[i])
            for i in range(1, table.k + 1))
        rep = bound_check(st, wset)
        fc = st.final_case()
        zero_ok = True
        if fc.j is not None and fc.j >= 2:
            c = st.group_census()
            zero_ok = (
                sum(v for i, v in c.red_indet.items()
                    if table.varphi[i] < fc.j) == 0
                and sum(v for i, v in c.blue_indet.items()
                        if table.phi[i] >= fc.j) == 0)
        hp = HarmonicPacker(38)
        for s in sizes:
            hp.insert(s.numerator, s.denominator)
        records.append(RunRecord(
            n=n, kind=kind, slack=rep.slack, final_slack=rep.final_case_slack,
            case_id=rep.case_id, counter_law_ok=law_ok,
            feasibility=st.check_feasibility(), struct_zero_ok=zero_ok,
            harmonic_slack=hp.weight_slack()))
    assert len(records) >= 200
    return records, allowance


# -- certificate computations (criteria 1, 2, 9) -------------------------------

@pytest.fixture(scope="module")
def certs(wset):
    compat = ratio_certificate(wset, mode="paper-compat")
    exact = ratio_certificate(wset, mode="exact")
    return compat, exact


def test_criterion_1_reference_table_reproduction(certs, reference_table):
    """All 49 P(f) and P(g) values match the reference tables at 5e-7
    after 6-decimal rounding."""
    compat, _ = certs
    t0 = time.time()
    mismatches = []
    matched = 0
    for (i, j), ref in sorted(reference_table.items()):
        e = compat.entries[(i, j)]
        for name, mine, want in (("Pf", e.pf, Fraction(ref["pf"])),
                                 ("Pg", e.pg, Fraction(ref["pg"]))):
            rounded = Fraction(round6(mine.numerator, mine.denominator), 10 ** 6)
            if abs(rounded - want) <= TOL:
                matched += 1
            else:
                mismatches.append(
                    f"({i},{j}) {name}: computed {float(rounded):.6f} "
                    f"vs published {float(want):.6f}")
    detail = f"{matched}/98 values reproduced at 5e-7"
    record_criterion(1, not mismatches, detail)
    assert not mismatches, (
        f"{detail}; deviating entries (published last digits carry the "
        f"reference pipeline's binary rounding noise at exact decimal-half "
        f"data values; see the decisions ledger): " + "; ".join(mismatches))


def test_criterion_2_overall_bound(certs):
    """Retained bound lies in [2.5544, 2.5545], using the transposed
    orientation for the pairs {1,2}, {1,6}, {2,5}, {2,6}."""
    compat, _ = certs
    picks = {frozenset(k): o for k, (o, _) in compat.retained.items()}
    orient_ok = (picks[frozenset((1, 2))] == (1, 2)
                 and picks[frozenset((1, 6))] == (6, 1)
                 and picks[frozenset((2, 5))] == (5, 2)
                 and picks[frozenset((2, 6))] == (6, 2))
    in_window = Fraction("2.5544") <= compat.bound <= Fraction("2.5545")
    ok = orient_ok and in_window
    record_criterion(2, ok, f"retained bound {float(compat.bound):.6f}")
    assert in_window, float(compat.bound)
    assert orient_ok, picks


def test_criterion_3_oracle_equivalence(table):
    """pattern_max equals exhaustive enumeration exactly on 100 random
    weight functions over the 12-type truncated model, within a minute."""
    model = shplus_pattern_model(table, include_cuts=False, num_types=12)
    rnd = random.Random(20240810)
    t0 = time.time()
    diffs = 0
    for trial in range(100):
        tail = Fraction(38, 37) if trial % 2 else Fraction(rnd.randint(0, 2000), 1000)
        fn = PiecewiseFn(nums=(None, *(rnd.randint(0, 2000) for _ in range(12))),
                         den=1000, tail_slope=tail)
        a, _ = pattern_max(fn, model)
        b, _ = brute_force_max(fn, model)
        if a != b:
            diffs += 1
    elapsed = time.time() - t0
    ok = diffs == 0 and elapsed < 60
    record_criterion(3, ok, f"100 oracle comparisons in {elapsed:.1f}s")
    assert diffs == 0
    assert elapsed < 60


def test_criterion_4_cut_validity(table):
    """Every published constraint passes the validity check, and
    tightening any of them below its genuine peak yields a counterexample."""
    model = shplus_pattern_model(table)
    invalid = {}
    mutation_failures = []
    for cut in builtin_model_constraints(table):
        cex = validate_cut(cut, model)
        if cex is not None:
            invalid[cut.name] = cex
        peak, _ = cut_max_lhs(cut, model)
        mutated = LinearCut.make(cut.name + "_tight", dict(cut.coeffs),
                                 min(peak, cut.rhs) - Fraction(1, 100))
        if validate_cut(mutated, model) is None:
            mutation_failures.append(cut.name)
    ok = not invalid and not mutation_failures
    record_criterion(4, ok,
                     f"{len(invalid)} invalid constraint(s): {sorted(invalid)}")
    assert not mutation_failures, mutation_failures
    assert not invalid, (
        "published constraints excluding genuine patterns (see ledger; the "
        f"overall bound survives without them): {invalid}")


def test_criterion_5_cost_bound_suite(table, one_d_suite):
    """Cost <= max-case weight total + 108 on every run; the slack at
    n=10^5 stays within 10 of the slack at n=10^3."""
    records, allowance = one_d_suite
    assert allowance == 108
    worst = max(r.slack for r in records)
    over = [r for r in records if r.slack > allowance]
    max_small = max(r.slack for r in records if r.n == 1000)
    max_large = max(r.slack for r in records if r.n == 100000)
    growth_ok = max_large <= max_small + 10
    ok = not over and growth_ok
    record_criterion(
        5, ok, f"{len(records)} runs, worst slack {float(worst):.1f}, "
               f"max@1e3 {float(max_small):.1f}, max@1e5 {float(max_large):.1f}")
    assert not over
    assert growth_ok, (float(max_small), float(max_large))


def test_criterion_6_state_machine(one_d_suite):
    """Red-count law after every insertion, bin capacity and content
    feasibility, and the structural zeroes of the realized final case."""
    records, _ = one_d_suite
    law = [r for r in records if not r.counter_law_ok]
    feas = [r for r in records if r.feasibility]
    zeroes = [r for r in records if not r.struct_zero_ok]
    ok = not law and not feas and not zeroes
    record_criterion(6, ok, f"{len(records)} runs checked")
    assert not law
    assert not feas
    assert not zeroes


def test_criterion_7_2d_geometry_and_average_bound(table, wset):
    """Across 1000 random rectangle lists (n up to 10^4): geometry always
    validates and the averaged-weight inequality holds with constant 300."""
    delta = Fraction(1, 10000)
    geo_failures = []
    bound_failures = []
    worst = Fraction(0)
    rng = random.Random(777)
    plan = [rng.randint(10, 300) for _ in range(940)]
    plan += [rng.randint(1000, 3000) for _ in range(49)]
    plan += [2500] * 9 + [10000, 10000]
    assert len(plan) == 1000
    for idx, n in enumerate(plan):
        lr = random.Random(idx * 31 + 7)
        items = [Item2D(Fraction(lr.randint(1, 10 ** 6), 10 ** 6),
                        Fraction(lr.randint(1, 10 ** 6), 10 ** 6))
                 for _ in range(n)]
        tc, hxb, bxh = tensor_cost(items, table, delta)
        for run in (hxb, bxh):
            v = validate_geometry(run)
            if v:
                geo_failures.append((idx, v[:3]))
        rhs = (hxb.max_weight_bound(wset) + bxh.max_weight_bound(wset)) \
            / (2 * (1 - delta))
        slack = tc.avg - rhs
        worst = max(worst, slack)
        if slack > 300:
            bound_failures.append((idx, n, float(slack)))
    ok = not geo_failures and not bound_failures
    record_criterion(7, ok, f"1000 lists, worst averaged slack {float(worst):.1f}")
    assert not geo_failures, geo_failures[:3]
    assert not bound_failures, bound_failures[:3]


def test_criterion_8_harmonic_cost_bound(one_d_suite):
    """Harmonic(38) cost <= total height weight + 38 on every 1D run."""
    records, _ = one_d_suite
    worst = max(r.harmonic_slack for r in records)
    over = [r for r in records if r.harmonic_slack > 38]
    record_criterion(8, not over,
                     f"{len(records)} runs, worst slack {float(worst):.1f}")
    assert not over


def test_criterion_9_exact_tail_report(certs):
    """Emit both products for every pair with lam != 1/2 and flag pairs
    where the exact-tail product exceeds paper-compat by more than 1e-6.
    Reporting only; the open question is documented, not judged."""
    compat, exact = certs
    lines = []
    flagged = []
    for (i, j), lam in sorted(TUNED_LAMBDA.items()):
        if lam == Fraction(1, 2):
            continue
        pc = compat.entries[(i, j)].product
        pe = exact.entries[(i, j)].product
        flag = pe > pc + Fraction(1, 10 ** 6)
        if flag:
            flagged.append((i, j))
        lines.append(f"({i},{j}) lam={float(lam):.3f} "
                     f"compat={float(pc):.6f} exact={float(pe):.6f}"
                     f"{'  EXCEEDS' if flag else ''}")
    assert len(lines) == 36  # every pair with a skewed mix is reported
    # the exact tail slope can only grow, so flags concentrate where the
    # 1D case weights exceed the height weights somewhere
    print("\nexact-tail vs paper-compat products (lam != 1/2):")
    for ln in lines:
        print("  " + ln)
    record_criterion(9, True, f"36 pairs reported, {len(flagged)} flagged")
    assert all(isinstance(t, tuple) for t in flagged)
