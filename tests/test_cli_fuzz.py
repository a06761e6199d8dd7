"""A seeded fuzzer over ``pack1d``, ``pack2d`` and ``bound``, run in-process.

Each draw is an argv from a grammar of valid, boundary and malformed flag
values, with an instance file mutated from ``gen`` output (truncation, byte
flips, CRLF line ends, Unicode digits, 5,000-digit integers, exponent
tokens and swapped fields) or a lambda table mutated from the tuned one
(truncated JSON, wrong shapes, missing and extra pairs, 500-digit keys, and
lambdas at and past the ends of [0, 1], past float's range and past the
reader's digit limit).  Every run must end in one of the documented ways:

  * exit 0, and stdout parses as the JSON or CSV report;
  * exit 2, the report on stdout and only ``validation:`` lines on stderr;
  * exit 1, nothing on stdout and one ``error:`` line on stderr (argparse
    adds its usage line; the ``bound`` grammar holds only values argparse
    takes, so there it is the one line).

Counts are capped (``--n`` 300, ``--bins`` 50, ``--k`` 1000, files of 40
lines) so that no draw allocates more than a few MB; the larger values in
the grammar are ones the CLI refuses before it builds anything.
"""

import contextlib
import functools
import io
import json
import pathlib
import re
import tempfile

from hypothesis import HealthCheck, example, given, settings, strategies as st

from harmonicpack.boundcert import TUNED_LAMBDA
from harmonicpack.cli import main
from harmonicpack.superharmonic import PlacementTrace

HUGE = "1" + "0" * 5000  # beyond str()'s 4,300-digit limit
# placeholders, replaced by paths in the run's own directory; the drawn
# content is written to the instance file, which is also the lambda table
INSTANCE, LAMBDA, MISSING, TRACE, WITNESS, UNWRITABLE, DIRECTORY = (
    "@instance", "@lambda", "@missing", "@trace", "@witness", "@unwritable", "@directory")

# flag -> (valid values, boundary and malformed values)
FLAG_VALUES = {
    "--algorithm": (["sh+", "harmonic"], ["SH+", "", "nosuch"]),
    "--k": (["2", "38", "1000"], ["1", "0", "-5", "1000001", "1e3", "x", HUGE]),
    "--n": (["0", "1", "7", "300"], ["-1", "1e3", "0x10", "", "٣", "1000000000000", HUGE]),
    "--seed": (["0", "7", "-1", str(2 ** 70)], ["x", HUGE]),
    "--bins": (["1", "5", "50"], ["0", "-2", "x", "1000000000000"]),
    "--kind": (["uniform", "harmonic-adversarial", "tiled-known-opt"], ["file", "nosuch"]),
    "--delta": (["1/100", "1/10000", "49/100"], ["0", "1", "2", "nan", "inf", "1e-400",
                                                 "-1/2", "x", "1/0", f"1/{HUGE}"]),
    "--orientation": (["hxb", "bxh", "tensor-avg"], ["nosuch"]),
    "--format": (["json", "csv"], ["xml"]),
    "--trace-out": ([TRACE], [UNWRITABLE, DIRECTORY]),
    "--input": ([INSTANCE], [MISSING]),
}
BARE_FLAGS = ["--verify", "--timing"]
OWN_FLAGS = {  # the flags each subcommand takes
    "pack1d": ["--algorithm", "--k", "--trace-out"],
    "pack2d": ["--orientation", "--delta"],
}
JUNK = ["--nosuch", "-x", "extra", "--", "--n=5", "--format=csv"]


@st.composite
def argv(draw) -> list:
    """A subcommand, often an instance file, and up to six flags, each usually
    with a value, one in four of them malformed; one flag in eight is another
    subcommand's or junk."""
    command = draw(st.sampled_from(sorted(OWN_FLAGS)))
    tokens = [command] + (["--input", INSTANCE] if draw(st.booleans()) else [])
    own = ["--input", "--kind", "--n", "--seed", "--bins", "--format", *BARE_FLAGS,
           *OWN_FLAGS[command]]
    for _ in range(draw(st.integers(0, 6))):
        flag = draw(st.sampled_from(sorted(FLAG_VALUES) + JUNK)
                    if draw(st.integers(0, 7)) == 0 else st.sampled_from(own))
        tokens.append(flag)
        if flag in FLAG_VALUES and draw(st.integers(0, 15)):  # or a missing value
            valid, bad = FLAG_VALUES[flag]
            tokens.append(draw(st.sampled_from(bad if draw(st.integers(0, 3)) == 0
                                               else valid)))
    return tokens


@functools.lru_cache(maxsize=None)
def gen_output(kind: str, n: int, seed: int, dims: int) -> bytes:
    """What ``gen`` prints for this instance."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["gen", "--kind", kind, "--n", str(n), "--seed", str(seed),
                     "--bins", str(n // 4 + 1), "--dims", str(dims)]) == 0
    return out.getvalue().encode()


def _tokens(data: bytes) -> list:
    return list(re.finditer(rb"\S+", data))


def truncate(draw, data):
    return data[:draw(st.integers(0, len(data)))]


def flip_byte(draw, data):
    if not data:
        return data
    pos = draw(st.integers(0, len(data) - 1))
    return data[:pos] + bytes([data[pos] ^ draw(st.integers(1, 255))]) + data[pos + 1:]


def crlf(draw, data):
    return data.replace(b"\n", b"\r\n")


def unicode_digits(draw, data):
    digit = draw(st.sampled_from(b"0123456789"))
    other = draw(st.sampled_from(["٠", "０", "०"]))  # Arabic, fullwidth, Devanagari
    return data.replace(bytes([digit]), chr(ord(other) + digit - 48).encode(),
                        draw(st.integers(1, 3)))


def huge_integer(draw, data):
    tokens = _tokens(data)
    if not tokens:
        return data
    at = draw(st.sampled_from(tokens))
    new = draw(st.sampled_from([HUGE, f"1/{HUGE}", f"{HUGE}/{HUGE}1"])).encode()
    return data[:at.start()] + new + data[at.end():]


def exponent_token(draw, data):
    # at the reader's digit limit, one past it, and an upper-case exponent
    tokens = _tokens(data)
    if not tokens:
        return data
    at = draw(st.sampled_from(tokens))
    new = draw(st.sampled_from(["1e-4299", "1e-4300", "2.5E-3"])).encode()
    return data[:at.start()] + new + data[at.end():]


def swap_fields(draw, data):
    lines = data.split(b"\n")
    pos = draw(st.integers(0, len(lines) - 1))
    parts = lines[pos].split()
    if len(parts) == 2:
        parts.reverse()
    elif len(parts) == 1 and b"/" in parts[0]:
        parts = [b"/".join(reversed(parts[0].split(b"/", 1)))]
    lines[pos] = b" ".join(parts)
    return b"\n".join(lines)


MUTATIONS = [truncate, flip_byte, crlf, unicode_digits, huge_integer, exponent_token,
             swap_fields]


@st.composite
def instance(draw) -> bytes:
    """``gen`` output of up to 40 lines, in 1D or 2D, mutated up to three times."""
    data = gen_output(draw(st.sampled_from(["uniform", "harmonic-adversarial",
                                            "tiled-known-opt"])),
                      draw(st.integers(0, 40)), draw(st.integers(0, 3)),
                      draw(st.sampled_from([1, 2])))
    for _ in range(draw(st.integers(0, 3))):
        data = draw(st.sampled_from(MUTATIONS))(draw, data)
    return data


def parses(out: str) -> bool:
    """Whether ``out`` is a JSON object, or CSV rows of one width of at least 2."""
    try:
        return isinstance(json.loads(out), dict)
    except ValueError:
        widths = {line.count(",") for line in out.splitlines()}
        return out.endswith("\n") and len(widths) == 1 and widths != {0}


def run(tokens: list, content: bytes) -> tuple:
    """(exit code, stdout, stderr, trace text or None) of ``main`` on ``tokens``,
    with the placeholders replaced and ``content`` as the instance file (and
    lambda table)."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        (tmp / "instance.txt").write_bytes(content)
        (tmp / "directory").mkdir()
        paths = {INSTANCE: tmp / "instance.txt", LAMBDA: tmp / "instance.txt",
                 MISSING: tmp / "missing.txt", TRACE: tmp / "trace.csv",
                 WITNESS: tmp / "witness.json", UNWRITABLE: tmp / "missing" / "trace.csv",
                 DIRECTORY: tmp / "directory"}
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = main([str(paths.get(t, t)) for t in tokens])
            except SystemExit as exc:  # argparse refuses a flag this way
                rc = exc.code
        trace = paths[TRACE]
        return rc, out.getvalue(), err.getvalue(), \
            trace.read_text(encoding="utf-8") if trace.exists() else None


@given(argv(), instance())
@example(["pack1d", "--input", INSTANCE, "--trace-out", TRACE, "--verify"],
         gen_output("uniform", 40, 1, 1))
@example(["pack2d", "--input", INSTANCE, "--format", "csv", "--verify"],
         gen_output("uniform", 40, 1, 2))
@settings(max_examples=250, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_every_run_ends_in_a_documented_way(tokens, content):
    rc, out, err, trace = run(tokens, content)
    lines = err.splitlines()
    if rc == 0:
        assert parses(out) and err == "", (out, err)
    elif rc == 2:
        assert parses(out) and lines, (out, err)
        assert all(line.startswith("validation: ") for line in lines), err
    else:
        assert rc == 1 and out == "", (rc, out, err)
        errors = [line for line in lines if line.startswith("error: ")]
        assert len(errors) == 1, err
        assert all(line.startswith(("usage:", " ")) for line in lines
                   if not line.startswith("error: ")), err
    if trace is not None:  # written as items are placed, from the header on
        assert trace.startswith(PlacementTrace.CSV_HEADER + "\n"), trace[:80]


# -- bound: lambda tables mutated from the tuned one

# lambda entries as JSON text: valid; at the ends of [0, 1]; past float's
# range (the number 1e-4299 reads as the float 0) and at and past the
# reader's digit limit; out of range; and not numbers
LAMBDAS = ['"0.5"', "0.55", '"1/3"', "0", "1", '"1"', "1e-320", '"1e-320"', "1e-4299",
           '"1e-4299"', "1e-4300", '"1e-4300"', '"-1/2"', '"3/2"', "-0.5", "1.5", "true",
           "null", '"x"', "[0.5]"]
LONG = "7" * 500
# keys beside the 49 case pairs: 500- and 5,001-digit indices, pairs outside
# the 7 x 7 cases, and keys that are not "i,j"
EXTRA_KEYS = [f"1,{LONG}", f"{LONG},1", f"1,{HUGE}", "8,8", "0,1", "1,2,3", "a,b", ""]
WRONG_SHAPES = ["flat", "nested", "scalar"]
BOUND_FLAGS = {  # flag -> (eighths of the draws that hold it, values argparse takes)
    "--lambda-file": (7, [LAMBDA, LAMBDA, LAMBDA, MISSING]),
    "--mode": (4, ["paper-compat", "exact"]),
    "--delta": (2, ["1/10000", "1/100", "0", "1", "2", "-1/2", "1" + "0" * 300, "x", "1/0",
                    "nan", "1e-4300"]),
    "--witness": (4, [WITNESS, WITNESS, UNWRITABLE, DIRECTORY]),
}


def table_text(entries: dict, shape: str) -> bytes:
    """The lambda table of ``entries`` ("i,j" -> JSON text) as JSON: an object
    keyed "i,j", rows of seven, one flat list, rows nested one level deeper,
    or its first entry alone."""
    values = list(entries.values())
    rows = ", ".join("[" + ", ".join(values[r:r + 7]) + "]" for r in range(0, len(values), 7))
    return {"object": "{" + ", ".join(f'"{k}": {v}' for k, v in entries.items()) + "}",
            "rows": f"[{rows}]", "flat": "[" + ", ".join(values) + "]",
            "nested": f"[[{rows}]]", "scalar": values[0]}[shape].encode()


def tuned_entries() -> dict:
    """The tuned table as "i,j" -> JSON text."""
    return {f"{i},{j}": f'"{lam}"' for (i, j), lam in sorted(TUNED_LAMBDA.items())}


@st.composite
def lambda_table(draw) -> bytes:
    """The tuned table with up to three entries replaced, maybe a pair
    dropped and a key added, keyed "i,j" or in rows, or in one draw of four in
    one of ``WRONG_SHAPES``, and in one of four truncated."""
    entries = tuned_entries()
    for _ in range(draw(st.integers(0, 3))):
        entries[draw(st.sampled_from(sorted(entries)))] = draw(st.sampled_from(LAMBDAS))
    if draw(st.integers(0, 5)) == 0:
        del entries[draw(st.sampled_from(sorted(entries)))]
    if draw(st.integers(0, 3)) == 0:
        entries[draw(st.sampled_from(EXTRA_KEYS))] = '"0.5"'
    shapes = WRONG_SHAPES if draw(st.integers(0, 3)) == 0 else ["object", "rows"]
    text = table_text(entries, draw(st.sampled_from(shapes)))
    return truncate(draw, text) if draw(st.integers(0, 3)) == 0 else text


@st.composite
def bound_argv(draw) -> list:
    """``bound`` and some of ``BOUND_FLAGS``, each with a drawn value."""
    tokens = ["bound"]
    for flag, (eighths, values) in BOUND_FLAGS.items():
        if draw(st.integers(0, 7)) < eighths:
            value = draw(st.sampled_from(values))
            # "=" keeps a value such as -1/2 from reading as a flag
            tokens += [f"{flag}={value}"] if flag == "--delta" else [flag, value]
    return tokens


@given(bound_argv(), lambda_table())
# past float's range: the bound was once divided as a float, which overflowed
@example(["bound", "--lambda-file", LAMBDA], table_text(tuned_entries() | {"7,7": "1e-320"},
                                                         "object"))
@example(["bound", "--mode", "exact", "--lambda-file", LAMBDA],
         table_text(tuned_entries() | {"7,1": '"1e-4299"'}, "rows"))
@example(["bound", "--lambda-file", LAMBDA],
         table_text(tuned_entries() | {f"1,{LONG}": '"0.5"'}, "object"))
@settings(max_examples=40, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_every_bound_run_ends_in_a_documented_way(tokens, table):
    rc, out, err, _ = run(tokens, table)
    if rc == 0:
        *rows, summary = out.splitlines()
        assert err == "" and len(rows) == 50 and {row.count(",") for row in rows} == {6}
        assert re.fullmatch(r"# mode=(paper-compat|exact) cuts=on "
                            r"overall_bound=[0-9]+\.[0-9]{6}", summary), summary[:80]
    else:
        assert rc == 1 and out == "" and err.startswith("error: "), (rc, out, err)
        assert err.count("\n") == 1, err
