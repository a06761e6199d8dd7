"""Command-line harness tying the packers and the certifier together.

Subcommands:

  dump-params   print the built-in parameter table as JSON
  gen           write a deterministic instance file
  pack1d        run the 1D Harmonic or Super-Harmonic packer on an instance
  pack2d        run the 2D slice packer (one orientation or the average)
  weights       print the [case x type] weight table as CSV
  bound         compute the pair certificate and the overall ratio bound
  verify        run the built-in self-checks

Exit codes: 0 success, 1 usage error, 2 validation failure.
Reports are byte-stable for a fixed invocation; wall-clock timing is only
included with --timing.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import sys
import time
from collections import defaultdict
from fractions import Fraction

from . import boundcert, generators, params, weighting
from .harmonic import HarmonicPacker, w_h
from .pack2d import DEFAULT_DELTA, TensorRun, tensor_cost, validate_geometry
from .superharmonic import PlacementTrace, ShState, traced_insert
from .weighting import WeightFunctionSet, bound_check

USAGE_ERROR = 1
VALIDATION_ERROR = 2
_HARMONIC_K = 38  # the index of pack1d --algorithm harmonic without --k


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _field(value) -> str:
    """A CSV field: None, as in an untimed report's wall_time_s, is empty."""
    return "" if value is None else str(value)


class _EveryDigit:
    """A block run with Python's limit on the digits str() writes of an int
    lifted, and the limit restored after.  The limit guards the readers; a
    report is written with it lifted, as a value the readers take, such as a
    size of 1e-4299 or a lambda of 1/(10**4300 - 1), can give a report value
    of more digits."""

    def __enter__(self):
        self.limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)

    def __exit__(self, *exc):
        sys.set_int_max_str_digits(self.limit)


def _emit(data, fmt: str):
    """Write ``data``, its Fractions as str() writes them, every digit."""
    stream = sys.stdout
    with _EveryDigit():
        if fmt == "json":
            json.dump(data, stream, indent=2, sort_keys=True, default=str)
            stream.write("\n")
        elif isinstance(data, dict):  # csv: dict of scalars -> key,value rows
            for k in sorted(data):
                stream.write(f"{k},{_field(data[k])}\n")
        else:  # csv: list of dicts -> table
            cols = list(data[0]) if data else []
            stream.write(",".join(cols) + "\n")
            for row in data:
                stream.write(",".join(_field(row[c]) for c in cols) + "\n")


def _instance_from_args(args, dims: int) -> generators.Instance:
    """The instance named by --input, or else by --kind/--n/--seed/--bins."""
    if args.input:
        spec = generators.InstanceSpec(kind="file", dims=dims, path=args.input)
    else:
        spec = generators.InstanceSpec(kind=args.kind, n=args.n, seed=args.seed,
                                       dims=dims, bins=args.bins)
    return generators.generate(spec)


def _at_least(least: int):
    """argparse type: an integer no smaller than ``least``."""
    def count(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        return value
    return count


def _add_instance_args(sub, with_input: bool = True):
    if with_input:
        sub.add_argument("--input", help="instance file (overrides --kind)")
    else:
        sub.set_defaults(input=None)
    sub.add_argument("--kind", default="uniform",
                     choices=["uniform", "harmonic-adversarial", "tiled-known-opt"])
    sub.add_argument("--n", type=_at_least(0), default=1000)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--bins", type=_at_least(1), default=10,
                     help="bins for tiled-known-opt")


def _sh_audit(st: ShState, rep) -> list:
    """Violations of a finished SH+ run, given its cost-bound report."""
    bad = st.check_feasibility()
    if rep.slack > weighting.slack_allowance(st.table):
        bad.append(f"cost bound {params.named(*rep.slack.as_integer_ratio(), 'slack')} "
                   f"over allowance")
    return bad


def _ceil_sum(per_den: dict) -> int:
    """Ceiling of the sum of p/q over ``per_den``, which maps each denominator
    q to the sum of its numerators p, in integers: the terms are added in
    pairs, level by level, so each lcm joins two denominators of like size
    (one lcm of them all costs the square of their number)."""
    terms = [(p, q) for q, p in per_den.items()] or [(0, 1)]
    while len(terms) > 1:
        it = iter(terms)
        terms = [params.exact_add(*a, *b) for a, b in
                 itertools.zip_longest(it, it, fillvalue=(0, 1))]
    num, den = terms[0]
    return -(-num // den)


def _pack_pairs(items, insert) -> tuple:
    """Hand each pair (p, q) of ``items`` to ``insert(p, q)`` as it is read;
    returns their count and the ceiling of their sum."""
    per_den = defaultdict(int)
    n = 0
    for p, q in items:
        n += 1
        per_den[q] += p
        insert(p, q)
    return n, _ceil_sum(per_den)


def _report_common(args, inst, n: int, cost, lower_bound, extra: dict,
                   elapsed: float) -> dict:
    """The report of a run that took ``elapsed`` seconds from before its
    instance was made: the instance's stream was read while the run went on,
    and its read time is the report's ``read_time_s``, not wall time."""
    read_s = inst.items.read_s
    report = {
        "instance": f"{inst.spec.kind}/n={n}/seed={inst.spec.seed}",
        "cost": str(cost),
        "lower_bound": str(lower_bound),
        "ratio": str(Fraction(cost) / lower_bound) if lower_bound else "",
        "wall_time_s": round(elapsed - read_s, 3) if args.timing else None,
    }
    if args.timing:
        report["read_time_s"] = round(read_s, 3)
    report.update(extra)
    return report


def cmd_dump_params(args) -> int:
    table = params.builtin_shplus()
    sys.stdout.write(table.dumps() + "\n")
    return 0


def cmd_gen(args) -> int:
    inst = _instance_from_args(args, args.dims)
    out = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    try:
        # exact: "p/q", or p when q is 1, as str(Fraction) of the pairs, which
        # the generators draw in lowest terms
        for it in inst.items:
            pairs = (it,) if args.dims == 1 else (it[:2], it[2:])
            out.write(" ".join(f"{p}/{q}" if q != 1 else f"{p}" for p, q in pairs) + "\n")
    finally:
        if args.out:
            out.close()
    return 0


def cmd_pack1d(args) -> int:
    if args.trace_out and args.algorithm == "harmonic":
        raise ValueError("--trace-out traces the sh+ algorithm only")
    if args.k is not None and args.algorithm == "sh+":
        raise ValueError("--k sets the index of the harmonic algorithm only")
    t0 = time.perf_counter()
    inst = _instance_from_args(args, dims=1)
    if args.algorithm == "harmonic":
        k = _HARMONIC_K if args.k is None else args.k
        packer = HarmonicPacker(k)
        n, lb = _pack_pairs(inst.items, packer.insert)
        cost = packer.cost
        slack = packer.weight_slack()
        extra = {"algorithm": f"harmonic({k})", "weight_slack": slack}
        elapsed = time.perf_counter() - t0
        failures = [] if slack <= k else [
            f"weight {params.named(*slack.as_integer_ratio(), 'slack')} > {k}"]
    else:
        st = ShState(params.builtin_shplus())
        if args.trace_out:  # each row is written as its item is placed
            with open(args.trace_out, "w", encoding="utf-8") as fh:
                fh.write(PlacementTrace.CSV_HEADER + "\n")
                index = itertools.count()
                n, lb = _pack_pairs(inst.items, lambda p, q: fh.write(
                    traced_insert(st, next(index), p, q).csv_row() + "\n"))
        else:
            n, lb = _pack_pairs(inst.items, st.insert)
        rep = bound_check(st)
        extra = {"algorithm": "sh+", "final_case": rep.case_id,
                 "weight_slack": rep.slack}
        elapsed = time.perf_counter() - t0
        failures = _sh_audit(st, rep) if args.verify else []
        cost = st.cost
    report = _report_common(args, inst, n, cost, inst.known_opt or lb, extra, elapsed)
    _emit(report, args.format)
    if failures:
        for f in failures:
            print(f"validation: {f}", file=sys.stderr)
        return VALIDATION_ERROR
    return 0


def cmd_pack2d(args) -> int:
    t0 = time.perf_counter()
    inst = _instance_from_args(args, dims=2)
    items = list(inst.items)  # one pass per orientation
    table = params.builtin_shplus()
    wset = WeightFunctionSet(table)
    delta = params.parse_rational(args.delta)
    per_den = defaultdict(int)
    for wp, wq, hp, hq in items:
        per_den[wq * hq] += wp * hp
    lb = inst.known_opt or _ceil_sum(per_den)
    failures = []
    rows = []
    orientations = ("hxb", "bxh") if args.orientation == "tensor-avg" \
        else (args.orientation,)
    for orientation in orientations:
        run = TensorRun(table, orientation, delta)
        for it in items:
            run.insert(it)
        rows.append({"orientation": run.orientation, "bins": run.cost,
                     "slices": len(run.slices),
                     "weight_bound": f"{float(run.max_weight_bound(wset)):.6f}"})
        if args.verify:
            failures += validate_geometry(run)
    if args.format == "csv":
        _emit(rows, "csv")
    else:
        cost = Fraction(sum(row["bins"] for row in rows), len(rows))
        extra = {"algorithm": args.orientation, "runs": rows}
        report = _report_common(args, inst, len(items), cost, lb, extra,
                                time.perf_counter() - t0)
        _emit(report, "json")
    if failures:
        for f in failures[:20]:
            print(f"validation: {f}", file=sys.stderr)
        return VALIDATION_ERROR
    return 0


def cmd_weights(args) -> int:
    table = params.builtin_shplus()
    wset = WeightFunctionSet(table)
    rows = []
    for i in range(1, table.k + 1):
        row = {"type": i, "t": str(table.t[i])}
        for c in range(1, wset.num_cases + 1):
            row[f"case{c}"] = str(wset.values[c][i])
        rows.append(row)
    _emit(rows, "csv")
    return 0


def _load_lambda(path, ncases: int) -> dict:
    """The raw mixing weights of a JSON file, either a nested array (row i,
    column j) or an object keyed "i,j"; it holds exactly the case pairs."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise ValueError(f"lambda table {path}: {exc}") from None
    table = {}
    if isinstance(raw, list) and all(isinstance(row, list) for row in raw):
        for i, row in enumerate(raw, start=1):
            for j, lam in enumerate(row, start=1):
                table[(i, j)] = lam
    elif isinstance(raw, dict):
        for key, lam in raw.items():
            try:
                i, j = (int(x) for x in key.split(","))
            except ValueError:
                raise ValueError(f"lambda table {path}: key {params.shown(key)} is not "
                                 f"'i,j'") from None
            table[(i, j)] = lam
    else:
        raise ValueError(f"lambda table {path} is neither a list of lists "
                         f"nor an object keyed 'i,j'")
    for i, j in table:
        if not (0 < i <= ncases and 0 < j <= ncases):
            raise ValueError(f"lambda table {path}: pair {params.shown(i)},{params.shown(j)} "
                             f"lies outside the {ncases} x {ncases} case pairs")
    for i in range(1, ncases + 1):
        for j in range(1, ncases + 1):
            if (i, j) not in table:
                raise ValueError(f"lambda table {path} lacks the pair {i},{j}")
    return table


def cmd_bound(args) -> int:
    table = params.builtin_shplus()
    wset = WeightFunctionSet(table)
    delta = None if args.delta is None else params.parse_rational(args.delta)
    if delta is not None and not 0 < delta < 1:
        raise ValueError(f"--delta must lie in (0, 1), "
                         f"{params.named(*delta.as_integer_ratio(), 'got')}")
    lam = _load_lambda(args.lambda_file, wset.num_cases) if args.lambda_file else None
    try:
        cert = boundcert.ratio_certificate(wset, lam_table=lam, mode=args.mode)
    except ValueError as exc:  # only a lambda file can hold a pair that fails
        raise ValueError(f"lambda table {args.lambda_file}: {exc}") from None
    if args.witness:  # written before any row, so a path that fails prints nothing
        wit = {f"{i},{j}": {"Pf_pattern": e.pf_pattern, "Pg_pattern": e.pg_pattern}
               for (i, j), e in sorted(cert.entries.items())}
        with open(args.witness, "w", encoding="utf-8") as fh:
            json.dump(wit, fh, indent=2, sort_keys=True)
    retained_pairs = {orient for orient, _ in cert.retained.values()}

    def six(x: Fraction) -> str:
        """x >= 0 rounded half to even to six decimals, printed from the
        integer millionths, so no float overflows on a large value."""
        whole, frac = divmod(boundcert.round6(x.numerator, x.denominator), 10 ** 6)
        return f"{whole}.{frac:06d}"

    bound = cert.bound if delta is None else cert.bound / (1 - delta)
    with _EveryDigit():
        rows = [{"i": i, "j": j, "lambda": str(e.lam),
                 "Pf": six(e.pf), "Pg": six(e.pg), "product": six(e.product),
                 "retained": int((i, j) in retained_pairs)}
                for (i, j), e in sorted(cert.entries.items())]
        _emit(rows, "csv")
        print(f"# mode={cert.mode} cuts=on overall_bound={six(bound)}")
    return 0


def solver_trials(table, wset) -> tuple:
    """(model, functions) of the solver trial: the 15-type truncation with
    its cuts, on five random functions, an exact-mode g of the certificate and
    one on which cut_7_15 binds, excluding {7: 1, 15: 2} (weight 4, capped to 3)."""
    model = boundcert.shplus_pattern_model(table, num_types=15)
    n = model.ntypes
    fns = [boundcert.PiecewiseFn(nums=(None, *(rnd.randint(0, 2000) for _ in range(n))),
                                 den=1000, tail_slope=wset.tail_slope)
           for rnd in map(random.Random, range(5))]
    lam = boundcert.TUNED_LAMBDA[(6, 1)]
    f = boundcert.build_f(6, lam, wset)
    fns.append(boundcert.build_g(1, boundcert.ratio_hull(6, f, wset), wset))
    fns.append(boundcert.PiecewiseFn.from_values(
        ({7: 2, 15: 1}.get(m, 0) for m in range(1, n + 1)), tail_slope=Fraction(0)))
    return model, fns


def cmd_verify(args) -> int:
    """Compact self-check battery; nonzero exit on any failure."""
    table = params.builtin_shplus()
    failures = [f"params: {b}" for b in params.validate(table)]
    if params.ParamTable.from_json_dict(json.loads(table.dumps())) != table:
        failures.append("params: the dump-params JSON reads back to another table")
    # classify against Fraction comparisons at and near every breakpoint
    breaks = table.t[1:table.k + 2]
    near = (t + Fraction(s, 10 ** e) for t in breaks for e in (12, 40) for s in (-1, 0, 1))
    failures += [f"classify: type of {x} differs from its Fraction breakpoints" for x in near
                 if x <= 1 and table.classify(x.numerator, x.denominator)
                 != table.k + 1 - sum(t < x for t in breaks)]
    wset = WeightFunctionSet(table)

    rng = random.Random(20240808)
    st = ShState(table).pack(Fraction(rng.randint(1, 10 ** 6), 10 ** 6)
                             for _ in range(4000))
    failures += [f"sh: {b}" for b in _sh_audit(st, bound_check(st, wset))]

    items = [generators.Item2D(Fraction(rng.randint(1, 10 ** 6), 10 ** 6),
                               Fraction(rng.randint(1, 10 ** 6), 10 ** 6))
             for _ in range(500)]
    _, hxb, bxh = tensor_cost(items, table)
    failures += [f"2d: {v}" for v in validate_geometry(hxb)[:5]]
    failures += [f"2d: {v}" for v in validate_geometry(bxh)[:5]]
    # the integer weight totals against a Fraction sum, rectangle by rectangle
    charges = [(w_h(Fraction(*it[2:]), hxb.hk), Fraction(*hxb.width_class(*it[:2])[1]))
               for it in items]
    want = [sum((hw * wset.w(v, c) for hw, v in charges), Fraction(0))
            for c in range(1, wset.num_cases + 1)]
    if hxb.weight_bounds(wset)[1:] != want:
        failures.append("2d: weight totals differ from the per-rectangle sum")

    model, fns = solver_trials(table, wset)
    for trial, fn in enumerate(fns):
        v1, _ = boundcert.pattern_max(fn, model)
        v2, _ = boundcert.brute_force_max(fn, model)
        if v1 != v2:
            failures.append(f"solver: mismatch vs enumeration on trial {trial}")
    # the last trial is there to run a binding row: without cuts it weighs more
    free = boundcert.shplus_pattern_model(table, include_cuts=False, num_types=model.ntypes)
    if boundcert.pattern_max(fns[-1], free)[0] <= boundcert.pattern_max(fns[-1], model)[0]:
        failures.append("solver: no constraint row binds on the last trial")

    for line in failures:
        print(f"FAIL {line}", file=sys.stderr)
    print(f"self-check: {'FAIL' if failures else 'OK'} "
          f"({len(failures)} failure(s))")
    return VALIDATION_ERROR if failures else 0


def main(argv=None) -> int:
    parser = _Parser(prog="harmonicpack",
                     description="Harmonic-class online bin packing tools")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dump-params", help="print the built-in table as JSON")
    p.set_defaults(func=cmd_dump_params)

    p = sub.add_parser("gen", help="write a deterministic instance file")
    _add_instance_args(p, with_input=False)
    p.add_argument("--dims", type=int, default=1, choices=[1, 2])
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("pack1d", help="run a 1D packer")
    p.add_argument("--algorithm", default="sh+", choices=["harmonic", "sh+"])
    p.add_argument("--k", type=int,
                   help=f"harmonic index, for --algorithm harmonic (default {_HARMONIC_K})")
    _add_instance_args(p)
    p.add_argument("--verify", action="store_true")
    p.add_argument("--trace-out", help="write the placement trace CSV here")
    p.add_argument("--format", default="json", choices=["json", "csv"])
    p.add_argument("--timing", action="store_true")
    p.set_defaults(func=cmd_pack1d)

    p = sub.add_parser("pack2d", help="run the 2D slice packer")
    p.add_argument("--orientation", default="tensor-avg",
                   choices=["hxb", "bxh", "tensor-avg"])
    p.add_argument("--delta", default=str(DEFAULT_DELTA))
    _add_instance_args(p)
    p.add_argument("--verify", action="store_true")
    p.add_argument("--format", default="json", choices=["json", "csv"])
    p.add_argument("--timing", action="store_true")
    p.set_defaults(func=cmd_pack2d)

    p = sub.add_parser("weights", help="print the case weight table")
    p.set_defaults(func=cmd_weights)

    p = sub.add_parser("bound", help="compute the ratio certificate")
    p.add_argument("--mode", default="paper-compat",
                   choices=["paper-compat", "exact"])
    p.add_argument("--lambda-file", help="JSON table of mixing weights")
    p.add_argument("--delta", default=None,
                   help="divide the bound by (1 - delta)")
    p.add_argument("--witness", help="write argmax patterns here (JSON)")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("verify", help="run the self-check battery")
    p.set_defaults(func=cmd_verify)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # bad input files, sizes or flags
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
