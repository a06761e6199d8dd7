import copy
import hashlib
import itertools
import pickle
import re
import sys
import tempfile
import tracemalloc
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from harmonicpack import generators
from harmonicpack.cli import main
from harmonicpack.generators import Instance, InstanceSpec, generate, rectangle
from harmonicpack.pack2d import Item2D, TensorRun
from harmonicpack.params import builtin_shplus, parse_rational

from conftest import sides_of

# rectangle sides as written: unreduced, decimal, exponent and Unicode-digit
# forms, sides outside (0, 1], malformed tokens, and integer pairs
_SIDE_TOKENS = ["1/2", "2/4", "7/14", "0001/0002", "353/500", "0.294", "1e-3", "2E-1",
                ".5", "1", "\u0663/\uff17", "1_0/3_0", "+1/3", "0", "3/2", "-1/2",
                "1/0", "abc", "1e-5000", "2"]
_SIDES = st.sampled_from(_SIDE_TOKENS) | st.builds(
    "{}/{}".format, st.integers(0, 10 ** 20), st.integers(0, 10 ** 20))


class TestDeterminism:
    def test_same_spec_same_list(self):
        spec = InstanceSpec(kind="uniform", n=500, seed=7)
        assert list(generate(spec).items) == list(generate(spec).items)

    def test_different_seed_differs(self):
        a = list(generate(InstanceSpec(kind="uniform", n=500, seed=7)).items)
        b = list(generate(InstanceSpec(kind="uniform", n=500, seed=8)).items)
        assert a != b

    def test_sizes_in_range(self):
        items = generate(InstanceSpec(kind="uniform", n=300, seed=1)).items
        assert all(0 < p <= q and Fraction(p, q).denominator == q for p, q in items)


def _listed(inst: Instance) -> Instance:
    """``inst`` with its stream read into a list, for indexing."""
    return inst._replace(items=list(inst.items))


class TestKinds:
    def test_adversarial_levels(self):
        inst = _listed(generate(InstanceSpec(kind="harmonic-adversarial", n=8, seed=0)))
        eta = Fraction(1, 10 ** 6)
        assert inst.items[0] == (Fraction(1, 2) + eta).as_integer_ratio()
        assert inst.items[1] == (Fraction(1, 3) + eta).as_integer_ratio()
        assert inst.items[4] == inst.items[0]  # round-robin

    def test_tiled_1d(self):
        inst = _listed(generate(InstanceSpec(kind="tiled-known-opt", n=0, seed=3, bins=10)))
        assert len(inst.items) == 20 and inst.known_opt == 10
        assert sorted(inst.items)[0] == (49, 100)

    def test_tiled_2d_quadrants(self):
        inst = _listed(generate(InstanceSpec(kind="tiled-known-opt", seed=0, dims=2,
                                             bins=5)))
        assert len(inst.items) == 20 and inst.known_opt == 5
        assert inst.items[0] == Item2D(Fraction(1, 2), Fraction(1, 2))

    def test_uniform_2d(self):
        inst = generate(InstanceSpec(kind="uniform", n=50, seed=2, dims=2))
        assert all(type(it) is tuple and len(it) == 4 and set(map(type, it)) == {int}
                   for it in inst.items)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            generate(InstanceSpec(kind="nope", n=1, seed=0))

    @pytest.mark.parametrize("kind", ["uniform", "harmonic-adversarial",
                                      "tiled-known-opt", "file"])
    @pytest.mark.parametrize("dims", [1, 2])
    def test_every_kind_streams(self, tmp_path, kind, dims):
        path = tmp_path / "inst.txt"
        path.write_text("1/2\n" if dims == 1 else "1/2 1/3\n")
        inst = generate(InstanceSpec(kind=kind, n=5, dims=dims, bins=3, path=str(path)))
        assert isinstance(inst.items, generators.Stream)
        items = list(inst.items)
        assert inst.items.read_s >= 0 and items
        # a size is the pair (p, q), a rectangle (wp, wq, hp, hq): exact tuples of ints
        assert all(type(it) is tuple and len(it) == 2 * dims and set(map(type, it)) == {int}
                   for it in items)

    # sha256 of `gen --kind K --dims D --seed 5` with --n 10000 (--bins 2500
    # for the tiled kind), as written before every kind was streamed
    @pytest.mark.parametrize("kind,dims,digest", [
        ("uniform", 1, "94b973b697cf07de4c19a574b05014d3497113706b81e02bce34ead49cd29796"),
        ("uniform", 2, "21f2ade4ab7ca514af6e560702bb4552f871cffa98c5e2b6d0e4c2868cc855e2"),
        ("harmonic-adversarial", 1,
         "4022b3594dfd76beccb088809488e36cfcc0129cee248a0e61fa32cd14d513ed"),
        ("harmonic-adversarial", 2,
         "0cf4f2c492e1a64fa580fcea419219e8e82000dd6adaba33959cba9d483b25a9"),
        ("tiled-known-opt", 1,
         "8d6c979b3b078ad8dc41b3d6131f780d61245019b0eedc6ac1c4ce35a578ee86"),
        ("tiled-known-opt", 2,
         "1448e5f5d3e59d525dba9b7a2475b12adc02cc5297d76c9cd3ea7dca2612d1e8"),
    ])
    def test_gen_output_is_pinned(self, tmp_path, kind, dims, digest):
        out = tmp_path / "gen.txt"
        assert main(["gen", "--kind", kind, "--dims", str(dims), "--seed", "5",
                     "--n", "10000", "--bins", "2500", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_generated_rectangles_are_not_held(self, tmp_path):
        # made as a list, 20,000 adversarial rectangles peak near 3.1 MB; a
        # stream holds one block of 4,096 at a time, about 0.7 MB
        out = tmp_path / "gen.txt"
        tracemalloc.start()
        try:
            assert main(["gen", "--kind", "harmonic-adversarial", "--dims", "2",
                         "--n", "20000", "--out", str(out)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(out.read_text().splitlines()) == 20000
        assert peak < 1_500_000, peak


class TestSizeCap:
    # the cap lowered to 8, so that no test builds an instance near the real one
    @pytest.mark.parametrize("kind,dims,field,most", [
        ("uniform", 1, "n", 8), ("uniform", 2, "n", 8),
        ("harmonic-adversarial", 1, "n", 8), ("harmonic-adversarial", 2, "n", 8),
        ("tiled-known-opt", 1, "bins", 4), ("tiled-known-opt", 2, "bins", 2),
    ])
    def test_generated_count_is_capped(self, monkeypatch, kind, dims, field, most):
        # each dimension reads its own cap: the other one, set to 0, refuses all
        monkeypatch.setattr(generators, "_MAX_ITEMS", 8 if dims == 1 else 0)
        monkeypatch.setattr(generators, "_MAX_RECTANGLES", 0 if dims == 1 else 8)
        spec = InstanceSpec(kind=kind, dims=dims, **{field: most})
        assert len(list(generate(spec).items)) == 8
        what = "items" if dims == 1 else "rectangles"
        with pytest.raises(ValueError, match=f"^an instance of {8 + 8 // most} {what} "
                                             f"exceeds the cap of 8$"):
            generate(InstanceSpec(kind=kind, dims=dims, **{field: most + 1}))

    def test_files_are_not_capped(self, monkeypatch, tmp_path):
        monkeypatch.setattr(generators, "_MAX_ITEMS", 8)
        p = tmp_path / "nine.txt"
        p.write_text("1/2\n" * 9)
        assert len(list(generate(InstanceSpec(kind="file", path=str(p))).items)) == 9


class TestFileKind:
    def test_reads_sizes_with_comments(self, tmp_path):
        p = tmp_path / "inst.txt"
        p.write_text("# header\n0.5\n353/500  # exact rational\n\n0.25\n")
        inst = generate(InstanceSpec(kind="file", path=str(p)))
        assert list(inst.items) == [(1, 2), (353, 500), (1, 4)]

    def test_reads_rectangles(self, tmp_path):
        p = tmp_path / "inst2d.txt"
        p.write_text("0.5 0.25\n1/3 0.75\n")
        items = list(generate(InstanceSpec(kind="file", dims=2, path=str(p))).items)
        assert items[1] == Item2D(Fraction(1, 3), Fraction(3, 4)) and type(items[1]) is tuple

    def test_rejects_malformed_line(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("0.5 0.25 0.1\n")
        with pytest.raises(ValueError):
            generate(InstanceSpec(kind="file", dims=2, path=str(p)))

    @pytest.mark.parametrize("dims,text,message", [
        (1, "1/2\n\t0.5 0.25\t# two sizes\n",
         "expected one size per line, got '0.5 0.25'"),
        (2, "1/2 1/3\n  1/2  # one side\n", "expected 'w h' per line, got '1/2'"),
    ])
    def test_malformed_line_is_named(self, tmp_path, dims, text, message):
        p = tmp_path / "bad.txt"
        p.write_text(text)
        with pytest.raises(ValueError, match=f"^{message}$"):
            generate(InstanceSpec(kind="file", dims=dims, path=str(p)))

    @pytest.mark.parametrize("dims", [1, 2])
    def test_layout_reads_as_fraction_lines(self, tmp_path, dims):
        # comments, blank lines, tabs, padding and every token form read to
        # what Fraction makes of each line's tokens
        tokens = ["1/2", "353/500", "1", "0.294", "1e-3", "7/14", "\u0663/\uff17",
                  "0001/0002", "1_0/3_0", "+1/3", "2E-1", ".5"]
        lines = ["# header", "", "\t", "   # indented comment"]
        for i, tok in enumerate(tokens):
            other = tokens[-1 - i]
            body = tok if dims == 1 else f"{tok}\t{other}"
            lines += [f"  {body}\t# note {i}" if i % 3 == 0 else body,
                      "" if i % 2 else "\t  \t"]
        p = tmp_path / "layout.txt"
        p.write_text("\r\n".join(lines) + "\n", encoding="utf-8")
        want = [Fraction(t) if dims == 1 else (Fraction(t), Fraction(o))
                for t, o in zip(tokens, reversed(tokens))]
        got = generate(InstanceSpec(kind="file", dims=dims, path=str(p))).items
        assert [Fraction(*it) if dims == 1 else sides_of(it) for it in got] == want


def _outcome(read):
    """(w, h) of the rectangle ``read()`` returns, or its error message."""
    try:
        it = read()
    except ValueError as exc:
        return str(exc)
    return sides_of(it)


@given(st.tuples(_SIDES, _SIDES))
@settings(max_examples=200, deadline=None)
def test_rectangle_reader_equals_rational_reader(sides):
    # the file reader keeps the tokens' integers as written; by value, and in
    # its error messages, it reads what Item2D makes of two parsed rationals
    a, b = sides
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/rect.txt"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"{a} {b}\n")
        got = _outcome(lambda: list(generate(InstanceSpec(kind="file", dims=2,
                                                          path=path)).items)[0])
    assert got == _outcome(lambda: Item2D(parse_rational(a), parse_rational(b)))


def test_rectangle_copies_keep_its_pairs_as_written():
    # a rectangle is a plain tuple: copies and pickles keep its pairs, and a
    # "bxh" run stacks it turned, as written
    it = rectangle((2, 4), (7, 14))
    for clone in (pickle.loads(pickle.dumps(it)), copy.deepcopy(it), copy.copy(it)):
        assert type(clone) is tuple and clone == it == (2, 4, 7, 14)
    turned = TensorRun(builtin_shplus(), "bxh").insert(it).items
    assert turned == [(7, 14, 2, 4)] and sides_of(it) == (Fraction(1, 2),) * 2


@pytest.mark.parametrize("sides", [(True, "1/2"), ("1/2", True), (Fraction(1, 3), False)])
def test_rectangle_refuses_a_bool_side(sides):
    # True would read as the side 1: a bool is no number to parse_rational
    flag = next(x for x in sides if isinstance(x, bool))
    with pytest.raises(ValueError, match=f"^{flag} is not a number$"):
        Item2D(*sides)


# -- the chunked reader: plain chunks in bulk, every other chunk line by line

def _as_written(pairs):
    """Tokens as ``gen`` writes a pair: "p/q", or "p" when q is 1."""
    return pairs.map(lambda pq: f"{pq[0]}/{pq[1]}" if pq[1] != 1 else str(pq[0]))


_PLAIN_SIDE = _as_written(st.integers(1, 10 ** 6).flatmap(
    lambda q: st.tuples(st.integers(1, q), st.just(q))) | st.just((1, 1)))
_PLAIN_SIZE = _as_written(st.tuples(st.integers(0, 10 ** 7), st.integers(1, 10 ** 7)))
# lines and tokens the bulk path must leave to the per-line loop
_ODD_LINES = ["0012/0034", "# comment", "", "   ", "\t", " 1/2", "1/2 ", "1/2  # note",
              "0.294", "٣/７", "5/0", "0/0", "9" * 5000, "1/" + "7" * 5000,
              "1/2 1/3 1/4", "3/2", "1/2 3/2", "0 1/2", "1e-3", "+1/3", "1/2\x0b"]


@st.composite
def _instance_files(draw, dims):
    token = _PLAIN_SIDE if dims == 2 else _PLAIN_SIZE | _PLAIN_SIDE
    plain = st.lists(token, min_size=dims, max_size=dims).map(" ".join)
    lines = draw(st.lists(plain | st.sampled_from(_ODD_LINES) if draw(st.booleans())
                          else plain, min_size=1, max_size=60))
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    return ending.join(lines) + draw(st.sampled_from(["", ending]))


def _file_outcome(read):
    """The items ``read()`` returns with their types, or its error message."""
    try:
        items = read()
    except ValueError as exc:
        return str(exc)
    return [(type(it), it) for it in items]


def _by_lines(path, dims):
    """The file read by the per-line loop alone."""
    items = []
    with open(path, "r", encoding="utf-8") as fh:
        generators._read_lines(fh, dims, items)
    return items


@pytest.mark.parametrize("dims", [1, 2])
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_chunked_reader_equals_the_line_loop(dims, data):
    # the same items, with the same types and pairs as written, or the same
    # error; small chunks put bad chunks after good ones
    text = data.draw(_instance_files(dims))
    chunk = data.draw(st.sampled_from([1, 24, 200, generators._CHUNK]))
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/inst.txt"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        with mock.patch.object(generators, "_CHUNK", chunk):
            got = _file_outcome(lambda: list(generate(
                InstanceSpec(kind="file", dims=dims, path=path)).items))
        assert got == _file_outcome(lambda: _by_lines(path, dims))


@pytest.mark.skipif(sys.version_info < (3, 11), reason="possessive quantifiers are 3.11 syntax")
@pytest.mark.parametrize("drawn", [1, 2])
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_possessive_check_takes_the_chunks_the_greedy_one_takes(drawn, data):
    # the plain-chunk check of 3.11 and later and the one of 3.10 accept and
    # refuse the same 1D and 2D chunks, as _read_plain hands them over
    text = data.draw(_instance_files(drawn))
    possessive, greedy = generators._plain_lines("+"), generators._plain_lines("")
    for chunk in {text, text if text.endswith("\n") else text + "\n"}:
        for dims in (1, 2):
            assert (re.fullmatch(possessive[dims], chunk) is None) \
                == (re.fullmatch(greedy[dims], chunk) is None), (dims, chunk)
    assert re.fullmatch(possessive[1], "1/2\n3\n") and re.fullmatch(possessive[2], "1 1/2\n")


@pytest.mark.parametrize("dims,bad", [(1, "5/0"), (1, "0012/0034"), (2, "1/2 3/2"),
                                      (2, "# a comment")])
def test_bad_chunk_after_good_chunks(tmp_path, dims, bad):
    # full-size chunks: a chunk that falls back after several bulk ones
    # gives what the loop gives
    line = "353/500" if dims == 1 else "353/500 1"
    path = tmp_path / "inst.txt"
    path.write_text("\n".join([line] * 30000 + [bad] + [line] * 10) + "\n")
    got = _file_outcome(lambda: list(generate(InstanceSpec(kind="file", dims=dims,
                                                           path=str(path))).items))
    assert got == _file_outcome(lambda: _by_lines(path, dims))
    assert isinstance(got, str) or len(got) >= 30010


# files whose chunk boundaries fall at every kind of line end: "\r\n", a lone
# "\r", no final newline, a line longer than the small chunks, a non-ASCII
# comment, and vertical-tab, file-separator and line-separator characters,
# which str.splitlines would split at but readlines does not
_CHUNK_FILES = [
    "1/2\r\n1/3\r\n2/4\r\n",
    "1/2\r1/3\r\n1/5\n1/6\r",
    "1/2\n1/3\n1/7",
    "1/2\n" + "1/" + "3" * 60 + "\n1/4\n",
    "# taille \u00e9\u00e9 \u2014 \u6570\n1/2\n1/3 # \u00fc\n1/9\n",
    "1/2 1/3\n1/4\x0b1/5\n1/6 1/7\n1/8\x1c1/9\n1/2\u20281/3\n",
    "",
    "\n\n\n",
]


class TestChunks:
    """A chunk is ``_CHUNK`` characters and the rest of the line they end in:
    the lines ``readlines(_CHUNK)`` returns, joined."""

    @staticmethod
    def _chunks(monkeypatch, path, dims):
        # the text of each chunk _file_blocks reads, as _read_plain gets it
        seen = []
        monkeypatch.setattr(generators, "_read_plain",
                            lambda text, dims: seen.append(text) or [])
        assert list(generators._file_blocks(path, dims)) == [[]] * len(seen)
        return seen

    @pytest.mark.parametrize("chunk", [1, 2, 24, generators._CHUNK])
    @pytest.mark.parametrize("text", _CHUNK_FILES)
    def test_chunks_are_readlines_chunks(self, tmp_path, monkeypatch, chunk, text):
        path = tmp_path / "inst.txt"
        path.write_bytes(text.encode("utf-8"))
        monkeypatch.setattr(generators, "_CHUNK", chunk)
        with open(path, "r", encoding="utf-8") as fh:
            want = ["".join(lines) for lines in iter(lambda: fh.readlines(chunk), [])]
        assert self._chunks(monkeypatch, path, 1) == want

    @pytest.mark.parametrize("chunk", [1, 2, 24, generators._CHUNK])
    @pytest.mark.parametrize("text", _CHUNK_FILES)
    @pytest.mark.parametrize("dims", [1, 2])
    def test_items_and_errors_are_the_line_loop_s(self, tmp_path, monkeypatch, chunk,
                                                 text, dims):
        path = tmp_path / "inst.txt"
        path.write_bytes(text.encode("utf-8"))
        monkeypatch.setattr(generators, "_CHUNK", chunk)
        got = _file_outcome(lambda: list(generate(InstanceSpec(kind="file", dims=dims,
                                                                  path=str(path))).items))
        assert got == _file_outcome(lambda: _by_lines(path, dims))

    @pytest.mark.parametrize("line,shown", [("1/2\x0b1/3", "'1/2\\x0b1/3'"),
                                            ("1/2\u20281/3", "'1/2\\u20281/3'"),
                                            ("1/2\x1c1/3", "'1/2\\x1c1/3'")])
    def test_a_line_split_only_by_str_splitlines_is_one_bad_line(self, tmp_path, capsys,
                                                               line, shown):
        # readlines ends lines at "\n", "\r" and "\r\n" alone, so each of
        # these is one line of two sizes
        path = tmp_path / "inst.txt"
        path.write_bytes(f"1/2\n{line}\n1/4\n".encode("utf-8"))
        assert main(["pack1d", "--input", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: expected one size per line, got {shown}\n"


class TestBulkPathTaken:
    """``gen`` files take the bulk path: no token goes through parse_pair."""

    @staticmethod
    def _gen_file(monkeypatch, tmp_path, dims):
        # a uniform instance with a size of exactly 1 every 97 draws, which
        # cmd_gen writes as the bare token "1"
        real, draws = generators._uniform_pair, itertools.count()
        monkeypatch.setattr(generators, "_uniform_pair",
                            lambda rng: (1, 1) if next(draws) % 97 == 0 else real(rng))
        out = tmp_path / f"gen{dims}.txt"
        assert main(["gen", "--n", "20000" if dims == 1 else "8000",
                     "--dims", str(dims), "--out", str(out)]) == 0
        monkeypatch.undo()
        text = out.read_text()
        assert len(text) > 2 * generators._CHUNK
        assert "1" in text.split()
        return out

    @staticmethod
    def _counted_read(monkeypatch, path, dims):
        calls, real = [], generators.parse_pair
        monkeypatch.setattr(generators, "parse_pair",
                            lambda token: calls.append(token) or real(token))
        items = list(generate(InstanceSpec(kind="file", dims=dims, path=str(path))).items)
        monkeypatch.undo()
        return items, calls

    @pytest.mark.parametrize("dims", [1, 2])
    def test_gen_file_makes_no_parse_pair_call(self, monkeypatch, tmp_path, dims):
        path = self._gen_file(monkeypatch, tmp_path, dims)
        want = _by_lines(path, dims)
        items, calls = self._counted_read(monkeypatch, path, dims)
        assert calls == [] and items == want

    @pytest.mark.parametrize("dims", [1, 2])
    def test_comment_falls_back_for_its_chunk_only(self, monkeypatch, tmp_path, dims):
        path = self._gen_file(monkeypatch, tmp_path, dims)
        lines = path.read_text().splitlines(keepends=True)
        lines.insert(len(lines) // 2, "# one comment\n")
        path.write_text("".join(lines))
        with open(path, "r", encoding="utf-8") as fh:
            chunks = list(iter(lambda: fh.readlines(generators._CHUNK), []))
        (chunk,) = [c for c in chunks if "# one comment\n" in c]
        assert len(chunks) >= 3
        want = [tok for line in chunk if not line.startswith("#") for tok in line.split()]
        items, calls = self._counted_read(monkeypatch, path, dims)
        assert calls == want and items == _by_lines(path, dims)
