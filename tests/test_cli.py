import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import pathlib
import random
import re
import subprocess
import sys
import tempfile
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from harmonicpack import generators, weighting
from harmonicpack.boundcert import ratio_certificate, round6
from harmonicpack.cli import _ceil_sum, main
from harmonicpack.harmonic import HarmonicPacker
from harmonicpack.generators import InstanceSpec, generate
from harmonicpack.params import ParamTable, builtin_shplus, validate
from harmonicpack.superharmonic import ShState
from harmonicpack.weighting import bound_check


SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def run_cli(*args):
    # the child does not get pytest's pythonpath setting: put the checkout's
    # src first, so an uninstalled checkout runs its own package
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "harmonicpack.cli", *args],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})


class _Unpacked(ShState):
    """An SH+ run that must fail before it packs an item."""

    def insert(self, p, q, i=None):
        raise AssertionError("the run began packing")


class TestExitCodes:
    def test_usage_error_is_one(self):
        r = run_cli("pack1d", "--algorithm", "nosuch")
        assert r.returncode == 1

    def test_missing_command_is_one(self):
        r = run_cli()
        assert r.returncode == 1

    def test_success_is_zero(self):
        r = run_cli("pack1d", "--n", "50", "--seed", "1", "--verify")
        assert r.returncode == 0, r.stderr

    def test_validation_failure_is_two(self, monkeypatch, capsys):
        # force a geometry violation through the verify path
        import harmonicpack.cli as climod
        monkeypatch.setattr(climod, "validate_geometry",
                            lambda run: ["forced violation"])
        rc = climod.main(["pack2d", "--n", "20", "--seed", "0", "--verify"])
        assert rc == 2
        assert "forced violation" in capsys.readouterr().err


class TestInputErrors:
    # {dir} is a per-test directory holding the input files written below
    @pytest.mark.parametrize("argv,fragment", [
        ("pack1d --input {dir}/missing.txt", "No such file"),
        ("pack1d --input {dir}/too_big.txt", "3/2"),
        ("pack1d --algorithm harmonic --k 1", "k must be at least 2"),
        ("pack1d --algorithm harmonic --k 1000000000000", "k must be at most 1000000"),
        ("pack2d --n 10 --delta 0", "grid parameter"),
        ("bound --lambda-file {dir}/not_json.json", "not_json.json: Expecting"),
        ("bound --lambda-file {dir}/lacks_pair.json", "lacks the pair 3,4"),
        ("pack1d --n -3", "--n: must be at least 0"),
        ("gen --kind tiled-known-opt --bins 0", "--bins: must be at least 1"),
        ("bound --delta 1", "--delta must lie in (0, 1)"),
        ("bound --delta 2", "--delta must lie in (0, 1)"),
        ("bound --delta=-1", "--delta must lie in (0, 1)"),
        ("bound --lambda-file {dir}/flat_list.json", "neither a list of lists"),
        ("bound --lambda-file {dir}/number.json", "neither a list of lists"),
        ("bound --lambda-file {dir}/string.json", "neither a list of lists"),
        ("bound --lambda-file {dir}/bad_key.json", "key '1,2,3' is not 'i,j'"),
        ("pack1d --input {dir}/zero_den.txt", "zero denominator"),
        # a sign sends the token through Fraction's parser, which raises
        # ZeroDivisionError: it is named as the bare "1/0" is
        ("pack1d --input {dir}/signed_zero_den.txt", "zero denominator in '+1/0'"),
        # a number of more than 40 digits is named by its digit count
        ("pack2d --input {dir}/too_thin.txt",
         "width with a 1-digit numerator and a 401-digit denominator lies below "
         "the tiny grid's depth floor"),
        ("pack2d --input {dir}/too_flat.txt",
         "height with a 1-digit numerator and a 401-digit denominator lies below "
         "the tiny grid's depth floor"),
        ("pack2d --input {dir}/too_thin_unreduced.txt",
         "width with a 1-digit numerator and a 401-digit denominator lies below "
         "the tiny grid's depth floor"),
        ("pack2d --input {dir}/thinner.txt",
         "width with a 1-digit numerator and a 4001-digit denominator lies below "
         "the tiny grid's depth floor of 1000000 classes"),
        ("pack2d --input {dir}/long_side.txt",
         "rectangle 1/2 x with a 42-digit numerator and a 41-digit denominator "
         "outside (0,1]^2"),
        ("pack1d --input {dir}/long_size.txt",
         "item size with a 42-digit numerator and a 41-digit denominator outside (0, 1]"),
        ("pack1d --algorithm harmonic --input {dir}/long_size.txt",
         "item size with a 42-digit numerator and a 41-digit denominator outside (0, 1]"),
        ("pack1d --input {dir}/forty_digits.txt",
         f"item size 2{'0' * 38}1/1{'0' * 39} outside (0, 1]"),
        # named in lowest terms: 2e41/1e40 is 20
        ("pack1d --input {dir}/reducible.txt", "item size 20 outside (0, 1]"),
        ("bound --no-cuts", "unrecognized arguments: --no-cuts"),
        ("bound --lambda-file {dir}/lambda_true.json",
         "lambda_true.json: pair 3,4: True is not a number"),
        ("bound --lambda-file {dir}/lambda_above_one.json",
         "lambda_above_one.json: pair 2,5: lam must lie in [0, 1]"),
        ("bound --lambda-file {dir}/lambda_zero.json",
         "lambda_zero.json: pair 7,7: f must be strictly positive"),
        ("bound --lambda-file {dir}/lambda_8x8.json",
         "lambda_8x8.json: pair 1,8 lies outside the 7 x 7 case pairs"),
        ("bound --lambda-file {dir}/lambda_key_8_8.json",
         "lambda_key_8_8.json: pair 8,8 lies outside the 7 x 7 case pairs"),
        ("pack1d --algorithm harmonic --n 10 --trace-out {dir}/trace.csv",
         "--trace-out traces the sh+ algorithm only"),
        # an exponent past int()'s limit is refused by the reader, before the
        # power of ten is built
        ("pack1d --input {dir}/huge.txt",
         "a token's 5001-digit numerator is over the limit of 4300 digits"),
        ("pack1d --algorithm harmonic --input {dir}/huge.txt",
         "a token's 5001-digit numerator is over the limit of 4300 digits"),
        ("pack2d --input {dir}/huge_rect.txt",
         "a token's 5001-digit denominator is over the limit of 4300 digits"),
        # at the limit it is read, and a size outside (0, 1] named by its digits
        ("pack1d --input {dir}/big.txt", "item size with a 4300-digit numerator "
                                         "and a 1-digit denominator outside (0, 1]"),
        ("pack1d --algorithm harmonic --input {dir}/big.txt",
         "item size with a 4300-digit numerator and a 1-digit denominator outside (0, 1]"),
        ("pack2d --input {dir}/big_rect.txt", "rectangle 2 x with a 1-digit numerator "
                                              "and a 4300-digit denominator outside"),
        # refused before any item is made: the instances would not fit in memory
        ("pack1d --n 1000000000000",
         "an instance of 1000000000000 items exceeds the cap of 10000000"),
        ("pack1d --kind tiled-known-opt --bins 1000000000000",
         "an instance of 2000000000000 items exceeds the cap of 10000000"),
        ("pack2d --kind tiled-known-opt --bins 1000000000000",
         "an instance of 4000000000000 rectangles exceeds the cap of 3000000"),
        ("gen --kind harmonic-adversarial --dims 2 --n 1000000000000",
         "an instance of 1000000000000 rectangles exceeds the cap of 3000000"),
        ("pack1d --algorithm sh+ --k 5 --n 10",
         "--k sets the index of the harmonic algorithm only"),
        ("pack1d --k 38 --n 10", "--k sets the index of the harmonic algorithm only"),
        # int() refuses more than 4,300 digits: the token's part is named
        ("pack1d --input {dir}/long_num.txt",
         "a token's 4301-digit numerator is over the limit of 4300 digits"),
        ("pack1d --algorithm harmonic --input {dir}/long_den.txt",
         "a token's 4301-digit denominator is over the limit of 4300 digits"),
        ("pack2d --input {dir}/long_rect_num.txt",
         "a token's 4301-digit numerator is over the limit of 4300 digits"),
        ("pack2d --input {dir}/long_rect_den.txt",
         "a token's 4302-digit denominator is over the limit of 4300 digits"),
        # a long flag value, lambda key or case index is cut to at most 40 digits
        (f"bound --delta 1{'0' * 300}",
         "--delta must lie in (0, 1), got with a 301-digit numerator and a 1-digit "
         "denominator"),
        ("bound --lambda-file {dir}/long_key.json",
         "long_key.json: key '1,9999999999999999...9999999999999999999' is not 'i,j'"),
        ("bound --lambda-file {dir}/long_j.json",
         "long_j.json: pair 1,777777777777777777...7777777777777777777 lies outside "
         "the 7 x 7 case pairs"),
    ], ids=["missing-input", "size-above-one", "k-1", "k-10-to-the-12", "delta-0",
            "lambda-not-json", "lambda-lacks-pair", "negative-n", "bins-0", "bound-delta-1",
            "bound-delta-2", "bound-delta-minus-1", "lambda-flat-list",
            "lambda-number", "lambda-string", "lambda-bad-key", "zero-denominator",
            "signed-zero-denominator",
            "width-below-depth-floor", "height-below-depth-floor",
            "width-unreduced-below-depth-floor", "width-4001-digits-below-depth-floor", "rectangle-side-42-digits",
            "sh-size-42-digits", "harmonic-size-42-digits", "sh-size-40-digits",
            "sh-size-reducible",
            "bound-no-cuts",
            "lambda-true", "lambda-above-one", "lambda-zero-f", "lambda-8x8-list",
            "lambda-key-8-8", "harmonic-trace-out", "sh-size-5001-digits",
            "harmonic-size-5001-digits", "rectangle-side-5001-digits", "sh-size-4300-digits",
            "harmonic-size-4300-digits", "rectangle-side-4300-digits", "n-10-to-the-12",
            "tiled-1d-bins-10-to-the-12", "tiled-2d-bins-10-to-the-12",
            "gen-2d-n-10-to-the-12", "sh-k", "default-algorithm-k",
            "sh-numerator-4301-digits", "harmonic-denominator-4301-digits",
            "rectangle-numerator-4301-digits", "rectangle-denominator-4302-digits",
            "bound-delta-301-digits", "lambda-key-5002-characters", "lambda-j-500-digits"])
    def test_input_error_is_one_line(self, tmp_path, capsys, argv, fragment):
        (tmp_path / "too_big.txt").write_text("1/2\n3/2\n")
        (tmp_path / "zero_den.txt").write_text("1/2\n1/0\n")
        (tmp_path / "signed_zero_den.txt").write_text("1/2\n+1/0\n")
        (tmp_path / "too_thin.txt").write_text("1e-400 1/2\n")
        (tmp_path / "too_flat.txt").write_text("1/2 1e-400\n")
        (tmp_path / "too_thin_unreduced.txt").write_text(f"1{'0' * 41}/1{'0' * 441} 1/2\n")
        (tmp_path / "thinner.txt").write_text("1e-4000 1/2\n")
        (tmp_path / "long_side.txt").write_text(f"1/2 2{'0' * 40}1/1{'0' * 40}\n")
        (tmp_path / "long_size.txt").write_text(f"1/2\n2{'0' * 40}1/1{'0' * 40}\n")
        (tmp_path / "reducible.txt").write_text(f"1/2\n2{'0' * 41}/1{'0' * 40}\n")
        (tmp_path / "forty_digits.txt").write_text(f"1/2\n2{'0' * 38}1/1{'0' * 39}\n")
        (tmp_path / "huge.txt").write_text("1e5000\n")
        (tmp_path / "huge_rect.txt").write_text("2 1e-5000\n")
        (tmp_path / "big.txt").write_text("1e4299\n")
        (tmp_path / "big_rect.txt").write_text("2 1e-4299\n")
        long = "1" + "0" * 4300  # one digit over int()'s limit
        (tmp_path / "long_num.txt").write_text(f"1/2\n{long}/{long}1\n")
        (tmp_path / "long_den.txt").write_text(f"1/2\n1/{long}\n")
        (tmp_path / "long_rect_num.txt").write_text(f"1/2 1/3\n{long}/{long}1 1/2\n")
        (tmp_path / "long_rect_den.txt").write_text(f"1/2 1/{long}0\n")
        (tmp_path / "not_json.json").write_text("{not json")
        (tmp_path / "lacks_pair.json").write_text(json.dumps(
            {f"{i},{j}": "0.5" for i in range(1, 8) for j in range(1, 8)
             if (i, j) != (3, 4)}))
        (tmp_path / "flat_list.json").write_text("[1, 2, 3]")
        (tmp_path / "number.json").write_text("5")
        (tmp_path / "string.json").write_text('"abc"')
        (tmp_path / "bad_key.json").write_text('{"1,2,3": "0.5"}')
        for name, ij, lam in (("lambda_true", "3,4", True),
                              ("lambda_above_one", "2,5", "1.5"),
                              ("lambda_zero", "7,7", 0)):
            (tmp_path / f"{name}.json").write_text(json.dumps(
                {f"{i},{j}": "0.5" for i in range(1, 8) for j in range(1, 8)} | {ij: lam}))
        (tmp_path / "long_key.json").write_text(json.dumps({"1," + "9" * 5000: "0.5"}))
        (tmp_path / "long_j.json").write_text(json.dumps(
            {f"{i},{j}": "0.5" for i in range(1, 8) for j in range(1, 8)}
            | {"1," + "7" * 500: "0.5"}))
        (tmp_path / "lambda_8x8.json").write_text(_LAMBDA_8X8)
        (tmp_path / "lambda_key_8_8.json").write_text(_LAMBDA_KEY_8_8)
        try:
            rc = main(argv.format(dir=tmp_path).split())
        except SystemExit as exc:  # argparse rejects bad flags this way
            rc = exc.code
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert rc == 1
        assert len(errors) == 1 and fragment in errors[0], err
        assert "Traceback" not in err
        # no number is spelled out in more than 40 digits
        runs = re.findall("[0-9]+", errors[0])
        assert all(len(run) <= 40 for run in runs), errors[0][:200]
        # anything else on stderr is argparse's usage block
        assert all(line.startswith(("usage:", " ")) for line in err.splitlines()
                   if not line.startswith("error:")), err

    def test_overlong_width_is_named_by_its_digits(self, tmp_path, capsys,
                                                    monkeypatch):
        # a width of more than 40 digits is named by its digit counts; a
        # lowered depth floor is reached in milliseconds.  The numerator's and
        # denominator's digits are counted once each, for the magnitude test,
        # and the message reuses those counts
        import harmonicpack.pack2d as pack2d
        monkeypatch.setattr(pack2d, "_MAX_DEPTH", 2000)
        monkeypatch.setattr(pack2d, "_LADDERS", {})  # no ladder outlives the patch
        counted, digits = [], pack2d.decimal_digits
        monkeypatch.setattr(pack2d, "decimal_digits",
                            lambda n: counted.append(n) or digits(n))
        (tmp_path / "thin.txt").write_text("1e-4299 1/2\n")
        rc = main(["pack2d", "--delta", "49/100", "--orientation", "hxb",
                   "--input", str(tmp_path / "thin.txt")])
        err = capsys.readouterr().err
        assert rc == 1 and "Traceback" not in err
        assert err == ("error: width with a 1-digit numerator and a 4300-digit "
                       "denominator lies below the tiny grid's depth floor of "
                       "2000 classes\n")
        assert len(counted) == 2

    @pytest.mark.parametrize("dims", [1, 2])
    @pytest.mark.parametrize("token,digits", [("1e-4300", 4301), ("1e-3000000", 3000001)])
    def test_exponent_is_refused_before_its_power_is_built(self, tmp_path, dims, token,
                                                           digits):
        # building 10**3000000 took about a second; the digits are counted first
        path = tmp_path / "thin.txt"
        path.write_text(f"1/2\n{token}\n" if dims == 1 else f"1/2 1/3\n{token} 1/2\n")
        spec = InstanceSpec(kind="file", dims=dims, path=str(path))
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"^a token's {digits}-digit denominator is "
                                             f"over the limit of 4300 digits$"):
            list(generate(spec).items)
        assert time.perf_counter() - start < 0.25
        path.write_text("1e-4299\n" if dims == 1 else "1e-4299 1/2\n")
        assert [it[:2] for it in generate(spec).items] == [(1, 10 ** 4299)]


# instance lines built from tokens, some valid sizes and some not; the
# smallest valid size is 1/1000, so no run reaches deep into the tiny grid
_TOKENS = ["0", "1", "-1", "1/2", "3/2", "1/0", "0.5", "1e-3", "2e0", "1/3",
           "abc", "nan", "inf", "#", "0x1", "1//2", "1/-2", "."]
_INSTANCE_TEXT = st.lists(st.lists(st.sampled_from(_TOKENS), max_size=3)
                          .map(" ".join), max_size=6).map("\n".join)
# at most 10 leaves: a complete 7x7 lambda table, which would run a whole
# certificate, cannot be generated
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 9)
    | st.sampled_from(["0.5", "1/0", "x", "1,2", "1,1"]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["1,1", "7,7", "1,2,3", "a", "8,1", ""]),
                      inner, max_size=4),
    max_leaves=10)
_LAMBDA_TEXT = _JSON.map(json.dumps) | st.sampled_from(["", "{", "[[0.5]", "nul"])
# complete tables with one pair beyond the 7 x 7 case pairs
_LAMBDA_8X8 = json.dumps([["0.5"] * 8] * 8)
_LAMBDA_KEY_8_8 = json.dumps({f"{i},{j}": "0.5" for i in range(1, 8)
                              for j in range(1, 8)} | {"8,8": "abc"})


def _run_main_on_file(argv, content) -> tuple:
    """Exit code and stderr of ``main(argv + [path])``, ``path`` holding
    ``content``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "input"
        if isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content, encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            try:
                rc = main([*argv, str(path)])
            except SystemExit as exc:
                rc = exc.code
    return rc, err.getvalue()


class TestErrorBoundary:
    # malformed files through main(): a documented exit code, no traceback
    @given(st.sampled_from([["pack1d"], ["pack1d", "--algorithm", "harmonic"],
                            ["pack2d"], ["pack2d", "--verify"]]),
           _INSTANCE_TEXT | st.binary(max_size=12).map(lambda b: b"\xff" + b))
    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_malformed_instance_file(self, command, content):
        rc, err = _run_main_on_file([*command, "--input"], content)
        assert rc in (0, 1, 2) and "Traceback" not in err, (rc, err)

    @given(_LAMBDA_TEXT)
    @example(_LAMBDA_8X8)
    @example(_LAMBDA_KEY_8_8)
    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_malformed_lambda_file(self, content):
        # no generated table is complete, and neither example is a 7 x 7 table,
        # so every run is an input error
        rc, err = _run_main_on_file(["bound", "--lambda-file"], content)
        assert rc == 1 and err.startswith("error: ") and "Traceback" not in err, err


class TestLowerBound:
    @pytest.mark.parametrize("seed", range(6))
    def test_ceil_sum_is_the_fraction_sum_s_ceiling(self, seed):
        rng = random.Random(seed)
        per_den = {}
        for _ in range(rng.choice([1, 2, 3, 50, 300])):
            q = rng.randint(1, 10 ** rng.randint(1, 30))
            per_den[q] = per_den.get(q, 0) + rng.randint(1, 3 * q)
        want = sum((Fraction(p, q) for q, p in per_den.items()), Fraction(0))
        assert _ceil_sum(per_den) == math.ceil(want)
        assert _ceil_sum({}) == 0

    def test_ceil_sum_of_many_denominators_is_fast(self):
        # one lcm of 30,000 distinct denominators took about 4 s; the sum of
        # (q - 1)/q over them is 30,000 less a sum of 1/q below 1
        per_den = {q: q - 1 for q in range(10 ** 6, 10 ** 6 + 30000)}
        start = time.perf_counter()
        assert _ceil_sum(per_den) == 30000
        assert time.perf_counter() - start < 1


class TestReports:
    def test_dump_params_round_trips(self):
        r = run_cli("dump-params")
        assert r.returncode == 0
        tbl = ParamTable.from_json_dict(json.loads(r.stdout))
        assert validate(tbl) == []

    def test_pack1d_json_report(self):
        r = run_cli("pack1d", "--algorithm", "sh+", "--kind", "tiled-known-opt",
                    "--bins", "10")
        data = json.loads(r.stdout)
        assert data["cost"] == "15"  # 10 pairs of (0.51, 0.49)
        assert data["lower_bound"] == "10"
        assert data["ratio"] == "3/2"
        assert data["wall_time_s"] is None  # byte-stable by default

    def test_pack1d_csv_report_leaves_untimed_field_empty(self, capsys):
        # the JSON report's null is an empty CSV field, not Python's None
        assert main(["pack1d", "--n", "20", "--format", "csv"]) == 0
        assert capsys.readouterr().out == (
            "algorithm,sh+\ncost,19\nfinal_case,1\ninstance,uniform/n=20/seed=0\n"
            "lower_bound,12\nratio,19/12\nwall_time_s,\nweight_slack,7645406/1595625\n")

    def test_harmonic_index_defaults_to_38(self, capsys):
        assert main(["pack1d", "--algorithm", "harmonic", "--n", "20"]) == 0
        assert json.loads(capsys.readouterr().out)["algorithm"] == "harmonic(38)"

    @pytest.mark.parametrize("command", ["pack1d", "pack2d"])
    def test_empty_instance_has_no_lower_bound(self, tmp_path, capsys, command):
        # nothing to pack: cost 0 against a lower bound of 0, and no ratio
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        assert main([command, "--input", str(empty)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert (data["cost"], data["lower_bound"], data["ratio"]) == ("0", "0", "")

    @pytest.mark.parametrize("command", ["pack1d", "pack2d"])
    def test_read_time_only_with_timing(self, tmp_path, capsys, command):
        out = tmp_path / "inst.txt"
        dims = "1" if command == "pack1d" else "2"
        assert main(["gen", "--n", "50", "--dims", dims, "--out", str(out)]) == 0
        assert main([command, "--input", str(out)]) == 0
        plain = json.loads(capsys.readouterr().out)
        assert main([command, "--input", str(out), "--timing"]) == 0
        timed = json.loads(capsys.readouterr().out)
        assert "read_time_s" not in plain and plain["wall_time_s"] is None
        assert timed["read_time_s"] >= 0 and timed["wall_time_s"] >= 0
        assert set(timed) - set(plain) == {"read_time_s"}

    @pytest.mark.parametrize("algorithm", ["sh+", "harmonic"])
    def test_report_prints_a_value_past_the_digit_limit(self, tmp_path, capsys,
                                                       algorithm):
        # 1e-4299 is read, and weighs 38/37 of itself in the tail: the slack's
        # denominator has 4,301 digits, more than str() writes of an int
        # unless the report lifts the limit
        path = tmp_path / "tiny.txt"
        path.write_text("1e-4299\n")
        limit = sys.get_int_max_str_digits()
        assert main(["pack1d", "--algorithm", algorithm, "--input", str(path)]) == 0
        assert sys.get_int_max_str_digits() == limit  # restored
        p, q = 1, 10 ** 4299
        if algorithm == "harmonic":
            packer = HarmonicPacker(38)
            packer.insert(p, q)
            want = packer.weight_slack()
        else:
            st = ShState(builtin_shplus())
            st.insert(p, q)
            want = bound_check(st).slack
        assert want.denominator >= 10 ** limit
        slack = json.loads(capsys.readouterr().out)["weight_slack"]
        sys.set_int_max_str_digits(0)
        try:
            assert Fraction(slack) == want
        finally:
            sys.set_int_max_str_digits(limit)

    @pytest.mark.parametrize("algorithm,line", [
        ("sh+", "cost bound slack with a 4301-digit numerator and a 4301-digit "
                "denominator over allowance"),
        ("harmonic", "weight slack with a 4303-digit numerator and a 4301-digit "
                     "denominator > 38")], ids=["sh+", "harmonic"])
    def test_validation_line_names_a_long_slack(self, tmp_path, capsys, monkeypatch,
                                                algorithm, line):
        # the validation lines are written after the report, with the digit
        # limit back in place: a slack past it is named by its digit counts.
        # Each check is made to fail, as only a faulty packer makes it fail
        path = tmp_path / "tiny.txt"
        path.write_text("1e-4299\n")
        slack = HarmonicPacker.weight_slack
        monkeypatch.setattr(HarmonicPacker, "weight_slack", lambda self: slack(self) + 100)
        monkeypatch.setattr(weighting, "slack_allowance", lambda table: -100)
        assert main(["pack1d", "--algorithm", algorithm, "--verify",
                     "--input", str(path)]) == 2
        assert capsys.readouterr().err == f"validation: {line}\n"

    def test_reports_are_byte_stable(self):
        a = run_cli("pack1d", "--n", "200", "--seed", "5")
        b = run_cli("pack1d", "--n", "200", "--seed", "5")
        assert a.stdout == b.stdout

    def test_pack1d_pinned_bit_for_bit(self, tmp_path, capsys):
        # the SH+ trace CSV and both pack1d JSON reports of a seeded run, as
        # the packers first wrote them
        trace = tmp_path / "trace.csv"
        args = ["pack1d", "--n", "3000", "--seed", "5"]
        assert main(args + ["--verify", "--trace-out", str(trace)]) == 0
        assert main(args + ["--algorithm", "harmonic", "--k", "38"]) == 0
        blob = trace.read_bytes() + capsys.readouterr().out.encode()
        assert len(trace.read_text().splitlines()) == 3001
        assert hashlib.sha256(blob).hexdigest() == (
            "7af1a713ba22f06bd465810c136da8c1c5a3dec73bd64b40bb752f5c0a95c2f3")

    def test_unreduced_tokens_report_as_reduced(self, tmp_path, capsys):
        # each size written over a multiple of its denominator, as 2/4 for
        # 1/2, gives the same reports and SH+ trace, byte for byte, as the
        # file in lowest terms; in 2D the sizes pair up as rectangles
        rng = random.Random(11)
        sizes = [Fraction(rng.randint(1, 10 ** 6), 10 ** 6) for _ in range(1500)]
        scales = itertools.cycle((2, 7, 10 ** 6, 1))
        tokens = {"low": ["1/2", "1/2", *map(str, sizes)],
                  "high": ["2/4", "500000/1000000", *(
                      f"{s.numerator * k}/{s.denominator * k}" for s, k in zip(sizes, scales))]}
        for name, toks in tokens.items():
            (tmp_path / f"{name}.txt").write_text("".join(f"{x}\n" for x in toks))
            (tmp_path / f"{name}2.txt").write_text(
                "".join(f"{w} {h}\n" for w, h in zip(toks[::2], toks[1::2])))
        outputs = []
        for name in ("low", "high"):
            path, trace = tmp_path / f"{name}.txt", tmp_path / f"{name}.csv"
            assert main(["pack1d", "--verify", "--input", str(path),
                         "--trace-out", str(trace)]) == 0
            assert main(["pack1d", "--algorithm", "harmonic", "--input", str(path)]) == 0
            assert main(["pack2d", "--verify", "--input", str(tmp_path / f"{name}2.txt")]) == 0
            outputs.append((capsys.readouterr().out, trace.read_bytes()))
        assert outputs[0] == outputs[1]
        assert b",tiny," in outputs[0][1]  # tail items are among them

    def test_gen_deterministic_and_loadable(self, tmp_path):
        out = tmp_path / "inst.txt"
        r1 = run_cli("gen", "--n", "30", "--seed", "9", "--out", str(out))
        text1 = out.read_text()
        run_cli("gen", "--n", "30", "--seed", "9", "--out", str(out))
        assert out.read_text() == text1
        r = run_cli("pack1d", "--input", str(out))
        assert r.returncode == 0

    @pytest.mark.parametrize("dims", [1, 2])
    @pytest.mark.parametrize("kind", ["uniform", "harmonic-adversarial",
                                      "tiled-known-opt"])
    def test_gen_file_is_exact(self, tmp_path, kind, dims):
        out = tmp_path / "inst.txt"
        args = ["--kind", kind, "--n", "60", "--seed", "3", "--bins", "4"]
        assert main(["gen", *args, "--dims", str(dims), "--out", str(out)]) == 0
        spec = InstanceSpec(kind=kind, n=60, seed=3, dims=dims, bins=4)
        loaded = generate(InstanceSpec(kind="file", dims=dims, path=str(out)))
        assert list(loaded.items) == list(generate(spec).items)

    @pytest.mark.parametrize("kind,dims,digest", [
        ("uniform", 1,
         "24818917b3bff6fb3b56a95acfc600155d8a2eef72e1a11f09fd39b0f17c4312"),
        ("uniform", 2,
         "b8abe92025d4408d0190fb4c7a7239dc8410c246363edb8ce9741e9243cf2215"),
        ("harmonic-adversarial", 1,
         "a90cf42820cf4b73894184e09afa78e5c7abce670cd736ced8b9d676d88ecf98"),
        ("harmonic-adversarial", 2,
         "ee0b1c603a360d4f5ba4010316b737ae8a360e069530b0013c6b81a9263118d2"),
        ("tiled-known-opt", 1,
         "44f4bb8ff3a01f0419e2d755a6dfcb820a72d592e5bf2c3ede2e80d557e2e773"),
        ("tiled-known-opt", 2,
         "0c04d1a9740cba7d87265fafc25ad411e8bb6bd5b61b63bbefe0a125354c2cc4"),
    ])
    def test_gen_pinned_bit_for_bit(self, capsys, kind, dims, digest):
        # each kind's instance as the generators first wrote it
        assert main(["gen", "--kind", kind, "--n", "40", "--seed", "3",
                     "--bins", "3", "--dims", str(dims)]) == 0
        out = capsys.readouterr().out.encode()
        assert hashlib.sha256(out).hexdigest() == digest

    def test_pack1d_from_gen_file_matches_generated_run(self, tmp_path):
        out = tmp_path / "inst.txt"
        gen = ("--kind", "harmonic-adversarial", "--n", "400")
        assert run_cli("gen", *gen, "--out", str(out)).returncode == 0
        from_file = json.loads(run_cli("pack1d", "--input", str(out)).stdout)
        direct = json.loads(run_cli("pack1d", *gen).stdout)
        for key in ("cost", "weight_slack", "final_case"):
            assert from_file[key] == direct[key], key

    def test_pack2d_csv_format(self):
        r = run_cli("pack2d", "--orientation", "hxb", "--n", "100",
                    "--seed", "2", "--format", "csv")
        assert r.returncode == 0
        lines = r.stdout.strip().splitlines()
        assert lines[0] == "orientation,bins,slices,weight_bound"
        assert lines[1].startswith("hxb,")

    def test_weights_table_shape(self):
        r = run_cli("weights")
        lines = r.stdout.strip().splitlines()
        assert lines[0].split(",")[:2] == ["type", "t"]
        assert len(lines) == 51  # header + 50 types

    def test_weights_pinned_bit_for_bit(self):
        # the whole weight table of the built-in parameters, byte for byte
        r = run_cli("weights")
        assert r.returncode == 0
        assert hashlib.sha256(r.stdout.encode()).hexdigest() == (
            "3684231a7aee598e5dd9982d2f754f942fe9c85de962d695af57bc18b70398d7")

    def test_dump_params_pinned_bit_for_bit(self):
        # the built-in table as JSON, derived columns included, byte for byte
        r = run_cli("dump-params")
        assert r.returncode == 0 and len(r.stdout.encode()) == 2992
        assert hashlib.sha256(r.stdout.encode()).hexdigest() == (
            "06f556670573569d3a2d04f23994595a4607839a79b5fc4e61346bdbf4696cd5")

    def test_trace_output(self, tmp_path):
        trace = tmp_path / "trace.csv"
        run_cli("pack1d", "--n", "50", "--seed", "3", "--trace-out", str(trace))
        lines = trace.read_text().strip().splitlines()
        assert lines[0] == ("item_index,size,type,color,group_before,"
                            "group_after,bin_id,opened")
        assert len(lines) == 51

    def test_trace_out_comes_from_the_reported_run(self, tmp_path):
        trace = tmp_path / "trace.csv"
        args = ("pack1d", "--n", "400", "--seed", "4", "--verify")
        plain = run_cli(*args)
        traced = run_cli(*args, "--trace-out", str(trace))
        assert plain.returncode == traced.returncode == 0
        assert traced.stdout == plain.stdout
        rows = trace.read_text().strip().splitlines()[1:]
        assert len(rows) == 400
        bins = {row.split(",")[-2] for row in rows}  # groups hold commas
        assert len(bins) == int(json.loads(plain.stdout)["cost"])

    def test_traced_run_holds_no_rows(self, tmp_path, capsys):
        # each row is written as its item is placed: the traced run's peak
        # allocation is the untraced run's and a little more, where holding
        # 20,000 rows would add several MB
        args = ["pack1d", "--n", "20000", "--seed", "7"]
        assert main(args) == 0  # a first run fills the caches both runs share
        peaks = []
        for extra in ([], ["--trace-out", str(tmp_path / "trace.csv")]):
            tracemalloc.start()
            try:
                assert main(args + extra) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        out = capsys.readouterr().out
        assert out[:len(out) // 3] * 3 == out  # three equal reports
        assert len((tmp_path / "trace.csv").read_text().splitlines()) == 20001
        assert peaks[1] <= peaks[0] + 500_000, peaks

    def test_streamed_run_holds_no_item_list(self, tmp_path, capsys):
        # the sizes are packed as the file is read, a chunk at a time: a
        # Harmonic run on 20,000 sizes peaks below 1.6 MB, which the list of
        # its items alone exceeds
        path = tmp_path / "sizes.txt"
        assert main(["gen", "--n", "20000", "--seed", "7", "--out", str(path)]) == 0
        args = ["pack1d", "--algorithm", "harmonic", "--input", str(path)]
        assert main(args) == 0  # a first run fills the caches
        tracemalloc.start()
        try:
            assert main(args) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out = capsys.readouterr().out
        assert out[:len(out) // 2] * 2 == out  # two equal reports
        tracemalloc.start()
        try:
            items = list(generate(InstanceSpec(kind="file", path=str(path))).items)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(items) == 20000 and peak < 1_600_000 < held, (peak, held)

    def test_unwritable_trace_path_fails_before_packing(self, tmp_path, capsys,
                                                         monkeypatch):
        import harmonicpack.cli as climod
        monkeypatch.setattr(climod, "ShState", _Unpacked)
        trace = tmp_path / "missing" / "trace.csv"
        assert main(["pack1d", "--n", "50", "--trace-out", str(trace)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert err.startswith("error: ") and str(trace) in err, err

    def test_bad_size_leaves_the_rows_placed_before_it(self, tmp_path, capsys):
        # the size on line 7 is refused while packing: the trace holds the
        # header and the rows of lines 1-6, and nothing is reported
        (tmp_path / "inst.txt").write_text("1/2\n1/3\n1/100\n41/100\n1/2\n7/10\n"
                                           "3/2\n1/4\n")
        trace = tmp_path / "trace.csv"
        rc = main(["pack1d", "--input", str(tmp_path / "inst.txt"),
                   "--trace-out", str(trace)])
        out, err = capsys.readouterr()
        assert rc == 1 and out == ""
        assert err.count("\n") == 1 and err.startswith("error: ") and "3/2" in err, err
        lines = trace.read_text().splitlines()
        assert lines[0] == "item_index,size,type,color,group_before,group_after,bin_id,opened"
        assert [row.split(",")[:2] for row in lines[1:]] == [
            [str(n), size] for n, size in enumerate(
                ["1/2", "1/3", "1/100", "41/100", "1/2", "7/10"])]

    def test_bad_line_in_a_later_chunk_leaves_the_rows_before_it(self, tmp_path, capsys,
                                                                 monkeypatch):
        # the file is read as it is packed: a line the reader refuses, in a
        # chunk after the first, ends the run with one error line, and the
        # trace holds the header and the rows of the chunks before that one
        monkeypatch.setattr(generators, "_CHUNK", 24)
        sizes = [f"1/{i}" for i in range(2, 40)]
        sizes[25] = "1/2 1/3"
        path, trace = tmp_path / "inst.txt", tmp_path / "trace.csv"
        path.write_text("".join(f"{x}\n" for x in sizes))
        with open(path, "r", encoding="utf-8") as fh:
            chunks = list(iter(lambda: fh.readlines(24), []))
        bad = next(k for k, chunk in enumerate(chunks) if "1/2 1/3\n" in chunk)
        placed = sum(map(len, chunks[:bad]))
        assert bad >= 2 and placed < 25
        rc = main(["pack1d", "--input", str(path), "--trace-out", str(trace)])
        out, err = capsys.readouterr()
        assert rc == 1 and out == ""
        assert err == "error: expected one size per line, got '1/2 1/3'\n", err
        lines = trace.read_text().splitlines()
        assert lines[0] == "item_index,size,type,color,group_before,group_after,bin_id,opened"
        assert [row.split(",")[:2] for row in lines[1:]] == [
            [str(n), size] for n, size in enumerate(sizes[:placed])]


class TestBoundCommand:
    def test_bound_csv_and_summary(self):
        r = run_cli("bound", "--mode", "paper-compat")
        assert r.returncode == 0
        lines = r.stdout.strip().splitlines()
        assert lines[0] == "i,j,lambda,Pf,Pg,product,retained"
        assert len([l for l in lines if not l.startswith("#")]) == 50
        summary = lines[-1]
        assert "overall_bound=2.554" in summary

    def test_lambda_file_override(self, tmp_path):
        lam = tmp_path / "lam.json"
        lam.write_text(json.dumps({f"{i},{j}": "0.5"
                                   for i in range(1, 8) for j in range(1, 8)}))
        r = run_cli("bound", "--lambda-file", str(lam))
        assert r.returncode == 0

    @pytest.mark.parametrize("mode,digest", [
        ("paper-compat",
         "78f59d3df19516a71c653e5713bc81a5dd0e82b744627b33099b847695df6d0f"),
        ("exact",
         "a4195d7116ed745a50ff8c88bf4c56321a826c42a85e395b45fe7b89607f5bf5"),
    ])
    def test_bound_pinned_bit_for_bit(self, tmp_path, capsys, mode, digest):
        # the per-pair table, the "# mode=... cuts=on overall_bound=..." line
        # and the witness patterns of the tuned lambda table
        wit = tmp_path / "wit.json"
        assert main(["bound", "--mode", mode, "--witness", str(wit)]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[-1].startswith(f"# mode={mode} cuts=on ")
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        assert hashlib.sha256(wit.read_bytes()).hexdigest() == (
            "0ac7a5ecc985306760ebf1d98dc7af7470bd3236b2710cc6910690eed805f2fa")

    @pytest.mark.parametrize("pair,lam,low", [
        ((7, 7), 1e-320, 10 ** 308), ((7, 1), "1/" + "9" * 4300, 10 ** 4300)],
        ids=["lambda-1e-320", "lambda-4300-nines"])
    def test_bound_past_a_float_prints_exactly(self, tmp_path, capsys, wset, pair, lam,
                                               low):
        # a tiny lambda leaves f all but the 1D case weight, which is 0 on some
        # types, so the pair's product passes float's range (at 7,7 the bound
        # does too), and at 1/(10**4300 - 1) the digits str() writes of an
        # int: each six-decimal value is written from its integer millionths,
        # every digit, as round6 gives them
        table = {(i, j): 0.5 for i in range(1, 8) for j in range(1, 8)} | {pair: lam}
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps({f"{i},{j}": x for (i, j), x in table.items()}))
        limit = sys.get_int_max_str_digits()
        assert main(["bound", "--lambda-file", str(path)]) == 0
        assert sys.get_int_max_str_digits() == limit  # restored
        header, *rows, summary = capsys.readouterr().out.splitlines()
        cert = ratio_certificate(wset, lam_table=table)
        e = cert.entries[pair]
        assert e.product > low

        def six(x):
            return Fraction(round6(x.numerator, x.denominator), 10 ** 6)

        row = dict(zip(header.split(","), rows[7 * pair[0] + pair[1] - 8].split(",")))
        assert (row["i"], row["j"]) == tuple(map(str, pair))
        assert summary.startswith("# mode=paper-compat cuts=on overall_bound=")
        sys.set_int_max_str_digits(0)
        try:
            assert [Fraction(row[k]) for k in ("lambda", "Pf", "Pg", "product")] == [
                e.lam, six(e.pf), six(e.pg), six(e.product)]
            assert Fraction(summary.rpartition("=")[2]) == six(cert.bound)
        finally:
            sys.set_int_max_str_digits(limit)

    def test_delta_scales_bound(self, capsys, wset):
        # --delta divides the overall bound by (1 - delta); the table stays
        assert main(["bound"]) == 0
        plain = capsys.readouterr().out.splitlines()
        assert main(["bound", "--delta", "1/10000"]) == 0
        scaled = capsys.readouterr().out.splitlines()
        assert scaled[:-1] == plain[:-1]
        bound = ratio_certificate(wset).bound / (1 - Fraction(1, 10000))
        assert scaled[-1] == f"# mode=paper-compat cuts=on overall_bound={float(bound):.6f}"

    @pytest.mark.parametrize("mode", ["paper-compat", "exact"])
    def test_builds_no_second_table(self, capsys, monkeypatch, mode):
        # the built-in table is built once a process: the command and the
        # cut model's check that its table is the built-in one share it
        assert builtin_shplus() is builtin_shplus()
        built, init = [], ParamTable.__init__
        monkeypatch.setattr(ParamTable, "__init__",
                            lambda self, *args: built.append(args) or init(self, *args))
        assert main(["bound", "--mode", mode]) == 0
        assert built == [] and "overall_bound=2.554" in capsys.readouterr().out

    def test_witness_file(self, tmp_path):
        wit = tmp_path / "wit.json"
        r = run_cli("bound", "--witness", str(wit))
        assert r.returncode == 0
        data = json.loads(wit.read_text())
        assert len(data) == 49
        assert "Pf_pattern" in data["1,1"]

    def test_unwritable_witness_prints_nothing(self, tmp_path, capsys):
        # the witness file is written before the first row: a path that
        # cannot be opened ends the run with one error line and no report
        rc = main(["bound", "--witness", str(tmp_path / "missing" / "w.json")])
        out, err = capsys.readouterr()
        assert rc == 1 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err


class TestVerify:
    def test_verify_passes(self):
        r = run_cli("verify")
        assert r.returncode == 0
        assert "self-check: OK" in r.stdout

    def test_weight_totals_checked_against_rectangle_sum(self, monkeypatch, capsys):
        # a weight_bounds that is off on one case fails the 2D trial, once
        from harmonicpack.pack2d import TensorRun
        exact = TensorRun.weight_bounds

        def off_on_case_3(run, wset):
            totals = exact(run, wset)
            totals[3] += Fraction(1, 10 ** 9)
            return totals

        monkeypatch.setattr(TensorRun, "weight_bounds", off_on_case_3)
        assert main(["verify"]) == 2
        out, err = capsys.readouterr()
        assert err == "FAIL 2d: weight totals differ from the per-rectangle sum\n"
        assert out == "self-check: FAIL (1 failure(s))\n"

    def test_solver_check_covers_a_certificate_g(self, monkeypatch, capsys):
        # trial 5 of the solver check is the exact-mode g of pair (6, 1); a
        # maximizer that is off only on its large denominators fails there
        from harmonicpack import boundcert
        exact = boundcert.pattern_max

        def off_on_large_denominators(fn, model):
            value, pattern = exact(fn, model)
            large = max(v.denominator for v in fn.values[1:]) > 10 ** 3
            return value + large, pattern

        monkeypatch.setattr(boundcert, "pattern_max", off_on_large_denominators)
        assert main(["verify"]) == 2
        out, err = capsys.readouterr()
        assert "FAIL solver: mismatch vs enumeration on trial 5" in err
        assert "self-check: FAIL (1 failure(s))" in out

    def test_solver_trial_has_a_binding_row(self, table, wset):
        # the trial model keeps cut_7_15 as a constraint row, which holds its
        # last function to 3: {7: 1, 15: 2} weighs 4 without cuts
        from harmonicpack.boundcert import pattern_max
        from harmonicpack.cli import solver_trials
        model, fns = solver_trials(table, wset)
        assert len(model.grid[3]) >= 1 and "cut_7_15" in [c.name for c in model.constraints]
        assert pattern_max(fns[-1], model)[0] == 3

    def test_solver_check_fails_without_a_binding_row(self, monkeypatch, capsys):
        # the trials on a model without rows would leave pattern_max's row
        # code unrun, and verify says so
        import harmonicpack.cli as climod
        from harmonicpack.boundcert import shplus_pattern_model
        trials = climod.solver_trials

        def cut_free(table, wset):
            _, fns = trials(table, wset)
            return shplus_pattern_model(table, include_cuts=False, num_types=15), fns

        monkeypatch.setattr(climod, "solver_trials", cut_free)
        assert climod.main(["verify"]) == 2
        out, err = capsys.readouterr()
        assert err == "FAIL solver: no constraint row binds on the last trial\n"
        assert out == "self-check: FAIL (1 failure(s))\n"
