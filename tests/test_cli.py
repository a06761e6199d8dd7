import contextlib
import hashlib
import io
import json
import pathlib
import subprocess
import sys
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from harmonicpack.cli import main
from harmonicpack.generators import InstanceSpec, generate
from harmonicpack.params import ParamTable, validate


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "harmonicpack.cli", *args],
                          capture_output=True, text=True)


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
        ("pack2d --n 10 --delta 0", "grid parameter"),
        ("bound --lambda-file {dir}/not_json.json", "Expecting"),
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
        ("pack2d --input {dir}/too_thin.txt",
         f"width 1/1{'0' * 400} lies below the tiny grid's depth floor"),
    ], ids=["missing-input", "size-above-one", "k-1", "delta-0", "lambda-not-json",
            "lambda-lacks-pair", "negative-n", "bins-0", "bound-delta-1",
            "bound-delta-2", "bound-delta-minus-1", "lambda-flat-list",
            "lambda-number", "lambda-string", "lambda-bad-key", "zero-denominator",
            "width-below-depth-floor"])
    def test_input_error_is_one_line(self, tmp_path, capsys, argv, fragment):
        (tmp_path / "too_big.txt").write_text("1/2\n3/2\n")
        (tmp_path / "zero_den.txt").write_text("1/2\n1/0\n")
        (tmp_path / "too_thin.txt").write_text("1e-400 1/2\n")
        (tmp_path / "not_json.json").write_text("{not json")
        (tmp_path / "lacks_pair.json").write_text(json.dumps(
            {f"{i},{j}": "0.5" for i in range(1, 8) for j in range(1, 8)
             if (i, j) != (3, 4)}))
        (tmp_path / "flat_list.json").write_text("[1, 2, 3]")
        (tmp_path / "number.json").write_text("5")
        (tmp_path / "string.json").write_text('"abc"')
        (tmp_path / "bad_key.json").write_text('{"1,2,3": "0.5"}')
        try:
            rc = main(argv.format(dir=tmp_path).split())
        except SystemExit as exc:  # argparse rejects bad flags this way
            rc = exc.code
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert rc == 1
        assert len(errors) == 1 and fragment in errors[0], err
        assert "Traceback" not in err
        # anything else on stderr is argparse's usage block
        assert all(line.startswith(("usage:", " ")) for line in err.splitlines()
                   if not line.startswith("error:")), err

    def test_overlong_width_is_named_by_its_digits(self, tmp_path, capsys,
                                                    monkeypatch):
        # str() refuses integers beyond 4,300 digits; a lowered depth floor
        # is reached in milliseconds.  The numerator's and denominator's digits
        # are counted once each, for the magnitude test, and the message
        # reuses those counts
        import harmonicpack.pack2d as pack2d
        monkeypatch.setattr(pack2d, "_MAX_DEPTH", 2000)
        counted, digits = [], pack2d._digits
        monkeypatch.setattr(pack2d, "_digits",
                            lambda n: counted.append(n) or digits(n))
        (tmp_path / "thin.txt").write_text("1e-300000 1/2\n")
        rc = main(["pack2d", "--delta", "49/100", "--orientation", "hxb",
                   "--input", str(tmp_path / "thin.txt")])
        err = capsys.readouterr().err
        assert rc == 1 and "Traceback" not in err
        assert err == ("error: width with a 1-digit numerator and a 300001-digit "
                       "denominator lies below the tiny grid's depth floor of "
                       "2000 classes\n")
        assert len(counted) == 2


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
    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_malformed_lambda_file(self, content):
        # no generated table is complete, so every run is an input error
        rc, err = _run_main_on_file(["bound", "--lambda-file"], content)
        assert rc == 1 and err.startswith("error: ") and "Traceback" not in err, err


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
        spec = InstanceSpec(kind=kind, n=60, seed=3, dims=dims,
                            params={"bins": 4} if kind == "tiled-known-opt" else {})
        loaded = generate(InstanceSpec(kind="file", dims=dims,
                                       params={"path": str(out)}))
        assert loaded.items == generate(spec).items

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

    def test_witness_file(self, tmp_path):
        wit = tmp_path / "wit.json"
        r = run_cli("bound", "--witness", str(wit))
        assert r.returncode == 0
        data = json.loads(wit.read_text())
        assert len(data) == 49
        assert "Pf_pattern" in data["1,1"]


class TestVerify:
    def test_verify_passes(self):
        r = run_cli("verify")
        assert r.returncode == 0
        assert "self-check: OK" in r.stdout
