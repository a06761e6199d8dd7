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
import json
import sys
import time
from fractions import Fraction

from . import boundcert, generators, params, weighting
from .harmonic import HarmonicPacker
from .pack2d import DEFAULT_DELTA, TensorRun, tensor_cost, validate_geometry
from .superharmonic import ShState
from .weighting import WeightFunctionSet, bound_check

USAGE_ERROR = 1
VALIDATION_ERROR = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _emit(data, fmt: str, stream=None):
    stream = stream or sys.stdout
    if fmt == "json":
        json.dump(data, stream, indent=2, sort_keys=True, default=str)
        stream.write("\n")
    else:  # csv: dict of scalars -> key,value rows; list of dicts -> table
        if isinstance(data, dict):
            for k in sorted(data):
                stream.write(f"{k},{data[k]}\n")
        else:
            cols = list(data[0]) if data else []
            stream.write(",".join(cols) + "\n")
            for row in data:
                stream.write(",".join(str(row[c]) for c in cols) + "\n")


def _instance_from_args(args, dims: int) -> generators.Instance:
    """The instance named by --input, or else by --kind/--n/--seed/--bins."""
    if args.input:
        spec = generators.InstanceSpec(kind="file", dims=dims,
                                       params={"path": args.input})
    else:
        spec = generators.InstanceSpec(
            kind=args.kind, n=args.n, seed=args.seed, dims=dims,
            params={"bins": args.bins} if args.kind == "tiled-known-opt" else {})
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
        bad.append(f"cost bound slack {rep.slack} over allowance")
    return bad


def _report_common(args, inst, cost, lower_bound, extra: dict,
                   elapsed: float) -> dict:
    report = {
        "instance": f"{inst.spec.kind}/n={len(inst.items)}/seed={inst.spec.seed}",
        "cost": str(cost),
        "lower_bound": str(lower_bound),
        "ratio": str(Fraction(cost) / lower_bound) if lower_bound else "",
        "wall_time_s": round(elapsed, 3) if args.timing else None,
    }
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
        for it in inst.items:  # exact: "p/q" or an integer
            out.write(f"{it}\n" if args.dims == 1 else f"{it.w} {it.h}\n")
    finally:
        if args.out:
            out.close()
    return 0


def cmd_pack1d(args) -> int:
    inst = _instance_from_args(args, dims=1)
    t0 = time.perf_counter()
    table = params.builtin_shplus()
    total = sum(inst.items, Fraction(0))
    lb = inst.known_opt if inst.known_opt else -(-total.numerator // total.denominator)
    if args.algorithm == "harmonic":
        packer = HarmonicPacker(args.k).pack(inst.items)
        cost = packer.cost
        slack = packer.weight_slack()
        extra = {"algorithm": f"harmonic({args.k})", "weight_slack": str(slack)}
        elapsed = time.perf_counter() - t0
        failures = [] if slack <= args.k else [f"weight slack {slack} > {args.k}"]
    else:
        st = ShState(table, keep_trace=bool(args.trace_out)).pack(inst.items)
        rep = bound_check(st)
        extra = {"algorithm": "sh+", "final_case": rep.case_id,
                 "weight_slack": str(rep.slack)}
        elapsed = time.perf_counter() - t0
        failures = _sh_audit(st, rep) if args.verify else []
        if args.trace_out:
            with open(args.trace_out, "w", encoding="utf-8") as fh:
                fh.write("item_index,size,type,color,group_before,"
                         "group_after,bin_id,opened\n")
                for tr in st.trace:
                    fh.write(tr.csv_row() + "\n")
        cost = st.cost
    report = _report_common(args, inst, cost, lb, extra, elapsed)
    _emit(report, args.format)
    if failures:
        for f in failures:
            print(f"validation: {f}", file=sys.stderr)
        return VALIDATION_ERROR
    return 0


def cmd_pack2d(args) -> int:
    inst = _instance_from_args(args, dims=2)
    table = params.builtin_shplus()
    wset = WeightFunctionSet(table)
    delta = params.parse_rational(args.delta)
    t0 = time.perf_counter()
    area = sum((it.w * it.h for it in inst.items), Fraction(0))
    lb = inst.known_opt if inst.known_opt else max(
        1, -(-area.numerator // area.denominator)) if inst.items else 1
    failures = []
    rows = []
    orientations = ("hxb", "bxh") if args.orientation == "tensor-avg" \
        else (args.orientation,)
    for orientation in orientations:
        items = inst.items if orientation == "hxb" else \
            [it.transposed for it in inst.items]
        run = TensorRun(table, orientation, delta).pack(items)
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
        report = _report_common(args, inst, cost, lb, extra,
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
    """The mixing weights of a JSON file, either a nested array (row i,
    column j) or an object keyed "i,j"; every case pair must be present."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    table = {}
    if isinstance(raw, list) and all(isinstance(row, list) for row in raw):
        for i, row in enumerate(raw, start=1):
            for j, lam in enumerate(row, start=1):
                table[(i, j)] = params.parse_rational(lam)
    elif isinstance(raw, dict):
        for key, lam in raw.items():
            try:
                i, j = (int(x) for x in key.split(","))
            except ValueError:
                raise ValueError(f"lambda table {path}: key {key!r} is not "
                                 f"'i,j'") from None
            table[(i, j)] = params.parse_rational(lam)
    else:
        raise ValueError(f"lambda table {path} is neither a list of lists "
                         f"nor an object keyed 'i,j'")
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
        raise ValueError(f"--delta must lie in (0, 1), got {delta}")
    lam = _load_lambda(args.lambda_file, wset.num_cases) if args.lambda_file else None
    cert = boundcert.ratio_certificate(
        wset, lam_table=lam, mode=args.mode,
        include_cuts=not args.no_cuts, delta=delta)
    retained_pairs = {orient for orient, _ in cert.retained.values()}
    rows = []
    for (i, j), e in sorted(cert.entries.items()):
        rows.append({
            "i": i, "j": j, "lambda": str(e.lam),
            "Pf": f"{float(boundcert.round6(e.pf)):.6f}",
            "Pg": f"{float(boundcert.round6(e.pg)):.6f}",
            "product": f"{float(boundcert.round6(e.product)):.6f}",
            "retained": int((i, j) in retained_pairs),
        })
    _emit(rows, "csv")
    bound = cert.bound_with_delta
    print(f"# mode={cert.mode} cuts={'off' if args.no_cuts else 'on'} "
          f"overall_bound={float(bound):.6f}")
    if args.witness:
        wit = {f"{i},{j}": {"Pf_pattern": e.pf_pattern, "Pg_pattern": e.pg_pattern}
               for (i, j), e in sorted(cert.entries.items())}
        with open(args.witness, "w", encoding="utf-8") as fh:
            json.dump(wit, fh, indent=2, sort_keys=True)
    return 0


def cmd_verify(args) -> int:
    """Compact self-check battery; nonzero exit on any failure."""
    import random

    failures = []
    table = params.builtin_shplus()
    bad = params.validate(table)
    if bad:
        failures += [f"params: {b}" for b in bad]
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

    model12 = boundcert.shplus_pattern_model(table, include_cuts=False, num_types=12)
    for trial in range(5):
        rnd = random.Random(trial)
        fn = boundcert.PiecewiseFn(
            values=(None, *(Fraction(rnd.randint(0, 2000), 1000) for _ in range(12))),
            tail_slope=Fraction(38, 37))
        v1, _ = boundcert.pattern_max(fn, model12)
        v2, _ = boundcert.brute_force_max(fn, model12)
        if v1 != v2:
            failures.append(f"solver: mismatch vs enumeration on trial {trial}")

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
    p.add_argument("--k", type=int, default=38, help="harmonic index")
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
    p.add_argument("--no-cuts", action="store_true")
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
