import copy
import pickle
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from harmonicpack.generators import Instance, InstanceSpec, generate
from harmonicpack.pack2d import Item2D
from harmonicpack.params import parse_rational

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
        assert generate(spec).items == generate(spec).items

    def test_different_seed_differs(self):
        a = generate(InstanceSpec(kind="uniform", n=500, seed=7)).items
        b = generate(InstanceSpec(kind="uniform", n=500, seed=8)).items
        assert a != b

    def test_sizes_in_range(self):
        items = generate(InstanceSpec(kind="uniform", n=300, seed=1)).items
        assert all(0 < p <= q and Fraction(p, q).denominator == q for p, q in items)


class TestKinds:
    def test_adversarial_levels(self):
        inst = generate(InstanceSpec(kind="harmonic-adversarial", n=8, seed=0))
        eta = Fraction(1, 10 ** 6)
        assert inst.items[0] == (Fraction(1, 2) + eta).as_integer_ratio()
        assert inst.items[1] == (Fraction(1, 3) + eta).as_integer_ratio()
        assert inst.items[4] == inst.items[0]  # round-robin

    def test_tiled_1d(self):
        inst = generate(InstanceSpec(kind="tiled-known-opt", n=0, seed=3, bins=10))
        assert len(inst.items) == 20 and inst.known_opt == 10
        assert sorted(inst.items)[0] == (49, 100)

    def test_tiled_2d_quadrants(self):
        inst = generate(InstanceSpec(kind="tiled-known-opt", seed=0, dims=2, bins=5))
        assert len(inst.items) == 20 and inst.known_opt == 5
        assert inst.items[0] == Item2D(Fraction(1, 2), Fraction(1, 2))

    def test_uniform_2d(self):
        inst = generate(InstanceSpec(kind="uniform", n=50, seed=2, dims=2))
        assert all(isinstance(it, Item2D) for it in inst.items)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            generate(InstanceSpec(kind="nope", n=1, seed=0))


class TestFileKind:
    def test_reads_sizes_with_comments(self, tmp_path):
        p = tmp_path / "inst.txt"
        p.write_text("# header\n0.5\n353/500  # exact rational\n\n0.25\n")
        inst = generate(InstanceSpec(kind="file", path=str(p)))
        assert inst.items == [(1, 2), (353, 500), (1, 4)]

    def test_reads_rectangles(self, tmp_path):
        p = tmp_path / "inst2d.txt"
        p.write_text("0.5 0.25\n1/3 0.75\n")
        inst = generate(InstanceSpec(kind="file", dims=2, path=str(p)))
        assert inst.items[1] == Item2D(Fraction(1, 3), Fraction(3, 4))

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
        assert [Fraction(*it) if dims == 1 else (it.w, it.h) for it in got] == want


def _outcome(read):
    """(w, h) of the rectangle ``read()`` returns, or its error message."""
    try:
        it = read()
    except ValueError as exc:
        return str(exc)
    return it.w, it.h


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
        got = _outcome(lambda: generate(InstanceSpec(kind="file", dims=2,
                                                     path=path)).items[0])
    assert got == _outcome(lambda: Item2D(parse_rational(a), parse_rational(b)))


def test_rectangle_copies_keep_its_pairs_as_written():
    it = Item2D.from_pairs((2, 4), (7, 14))
    for clone in (pickle.loads(pickle.dumps(it)), copy.deepcopy(it), copy.copy(it)):
        assert type(clone) is Item2D and clone == it == (2, 4, 7, 14)
    assert it.transposed == (7, 14, 2, 4) and (it.w, it.h) == (Fraction(1, 2),) * 2
