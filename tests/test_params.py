import fractions
import json
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import prior_reader
from conftest import harmonic_table
from harmonicpack.generators import rectangle
from harmonicpack.harmonic import harmonic_type
from harmonicpack.pack2d import TensorRun, TinyGrid
from harmonicpack.params import (ParamTable, builtin_shplus, middle_red_fraction,
                                 parse_pair, parse_rational, shown, validate)

# (i, beta_i, varphi_i, gamma_i) of the published table's rows 1..20 and 50
PUBLISHED_DERIVED = [
    (1, 1, 0, 0), (2, 1, 0, 0), (3, 1, 0, 0), (4, 1, 0, 0), (5, 1, 0, 0),
    (6, 1, 0, 0), (7, 1, 0, 0), (8, 2, 0, 0), (9, 2, 6, 1), (10, 2, 5, 1),
    (11, 2, 4, 1), (12, 2, 3, 1), (13, 2, 2, 1), (14, 3, 0, 0), (15, 3, 1, 1),
    (16, 4, 1, 1), (17, 5, 1, 1), (18, 6, 1, 1), (19, 6, 1, 2), (20, 7, 1, 2),
    (50, 37, 0, 0),
]


class TestBuiltinTable:
    def test_validates_clean(self, table):
        assert validate(table) == []

    def test_shape(self, table):
        assert table.k == 50 and table.K == 6
        assert table.eps == Fraction(1, 38)
        assert table.t[52] == 0 and table.t[1] == 1

    def test_equal_free_arrays_make_equal_frozen_tables(self, table):
        # the compound cuts accept a table equal to the built-in one, so
        # equality reads the free arrays and no assignment may change them
        same = ParamTable(k=table.k, K=table.K, t=table.t, alpha=table.alpha,
                          Delta=table.Delta, phi=table.phi)
        assert same is not table and same == table and hash(same) == hash(table)
        alpha = (*table.alpha[:9], table.alpha[9] / 2, *table.alpha[10:])
        assert ParamTable(k=table.k, K=table.K, t=table.t, alpha=alpha,
                          Delta=table.Delta, phi=table.phi) != table
        with pytest.raises(AttributeError):
            table.alpha = alpha

    def test_row_9(self, table):
        assert table.t[9] == Fraction("0.42")
        assert table.alpha[9] == Fraction("0.162")
        assert table.beta[9] == 2
        assert table.delta[9] == Fraction("0.16")
        assert table.phi[9] == 0
        assert table.varphi[9] == 6
        assert table.gamma[9] == 1

    def test_row_1(self, table):
        assert (table.t[1], table.alpha[1], table.beta[1]) == (1, 0, 1)
        assert (table.delta[1], table.phi[1], table.varphi[1], table.gamma[1]) == (0, 0, 0, 0)

    def test_middle_rows_red_fraction(self, table):
        # row 21: 1.35 * 29 / (37 * 9)
        assert table.alpha[21] == Fraction(783, 6660)
        assert middle_red_fraction(21) == Fraction(783, 6660)
        assert table.alpha[49] == Fraction(27, 740 * 37)

    def test_reserved_spaces(self, table):
        want = [0, "0.294", "0.343", "0.353", "0.375", "0.4", "0.42"]
        assert list(table.Delta) == [Fraction(str(x)) for x in want]

    def test_row12_boundary_equality_allowed(self, table):
        # Delta[phi(12)] == delta[12] exactly; must not be a violation
        assert table.Delta[table.phi[12]] == table.delta[12]
        assert validate(table) == []

    def test_red_acceptance_columns(self, table):
        # type j fits space m iff gamma_j * t_j <= Delta_m; matches the
        # published acceptance lists per space
        accepted = {m: [j for j in range(1, 51)
                        if table.alpha[j] > 0 and table.gamma[j] * table.t[j] <= table.Delta[m]]
                    for m in range(1, 7)}
        assert accepted[1] == [15, 16, 17, 18, 19, 20] + list(range(21, 50))
        assert accepted[2] == [13] + accepted[1]
        assert accepted[3] == [12, 13] + accepted[1]
        assert accepted[6] == [9, 10, 11, 12, 13] + accepted[1]

    @pytest.mark.parametrize("i,beta,varphi,gamma", PUBLISHED_DERIVED)
    def test_derived_columns_match_published(self, table, i, beta, varphi, gamma):
        assert (table.beta[i], table.varphi[i], table.gamma[i]) == (beta, varphi, gamma)

    def test_middle_rows_closed_forms(self, table):
        # t_i = 1/(i-13) fits the smallest space Delta_1 = 0.294 on rows 21..49
        for i in range(21, 50):
            want = (i - 13, 1, 294 * (i - 13) // 1000)
            assert (table.beta[i], table.varphi[i], table.gamma[i]) == want, i

    @pytest.mark.parametrize("m", [2, 7, 38])
    def test_harmonic_table_derives_harmonic_columns(self, m):
        # no reds and no reserved space: beta_i = i, varphi = gamma = 0
        h = harmonic_table(m)
        assert h.beta == (None, *range(1, m))
        assert h.varphi == h.gamma == (None, *[0] * (m - 1))
        assert validate(h) == []

    def test_red_types_fit_some_space(self, table):
        for i in range(1, 51):
            if table.alpha[i] > 0:
                assert table.varphi[i] >= 1
                assert table.gamma[i] >= 1


class TestValidateViolations:
    def test_bad_beta_flagged(self, table):
        # a given derived column must equal the derived one: the reader
        # refuses the table and names the first entry that differs
        data = table.to_json_dict()
        data["beta"][7] = 3  # row 8 has t = 0.5, so beta must be 2
        with pytest.raises(ValueError, match=r"^beta\[8\] = 3, but t, alpha and Delta give 2$"):
            ParamTable.from_json_dict(data)

    def test_bad_gamma_flagged_for_red_type(self, table):
        data = table.to_json_dict()
        data["gamma"][8] = 2  # row 9: 0.294 < t <= 0.42 forces gamma 1
        with pytest.raises(ValueError, match=r"^gamma\[9\] = 2, but t, alpha and Delta give 1$"):
            ParamTable.from_json_dict(data)

    def test_red_free_rows_accept_zero_red_attributes(self, table):
        # red-free types (alpha = 0) get varphi = gamma = 0, as the published
        # table records for rows 14 and 50, where t_i fits a reserved space
        assert table.t[14] <= table.Delta[table.K] and table.t[50] <= table.Delta[1]
        assert table.alpha[14] == 0 and table.gamma[14] == 0 and table.varphi[14] == 0
        assert table.alpha[50] == 0 and table.gamma[50] == 0
        assert validate(table) == []

    def test_non_integer_inverse_eps_flagged(self, table):
        # eps = 2/75 lies between t[50] = 1/37 and 1/38, so the 1D rules
        # hold, but the 2D packer's height weighting needs an integer 1/eps
        t = (*table.t[:table.k + 1], Fraction(2, 75), Fraction(0))
        odd = ParamTable(k=table.k, K=table.K, t=t, alpha=table.alpha, Delta=table.Delta,
                         phi=table.phi)
        assert validate(odd) == ["1/eps = 75/2 is not an integer: the 2D height "
                                 "weighting stacks at Harmonic index 1/eps"]
        with pytest.raises(ValueError, match="1/eps must be an integer"):
            TensorRun(odd)

    def test_phi_space_must_fit_leftover(self, table):
        data = table.to_json_dict()
        data["phi"][8] = 6  # row 9 leftover is 0.16 < Delta[6] = 0.42
        bad = validate(ParamTable.from_json_dict(data))
        assert any("Delta[phi[9]]" in v for v in bad)


def _read_and_validate(data) -> list:
    """The violations of a table JSON: validate's strings, or the reader's
    ValueError message as the only one.  Any other exception escapes."""
    try:
        return validate(ParamTable.from_json_dict(data))
    except ValueError as exc:
        return [str(exc)]


class TestMalformedTables:
    @pytest.mark.parametrize("edit,want", [
        (lambda d: d["phi"].__setitem__(3, 7), "phi[4] outside 0..K"),
        (lambda d: d["phi"].__setitem__(3, -1), "phi[4] outside 0..K"),
        (lambda d: d["t"].__setitem__(20, "0"), "t[21] outside (0, 1]"),
        (lambda d: d["t"].__setitem__(50, "-1/38"), "t[51] outside (0, 1]"),
        (lambda d: d.pop("alpha"), "parameter table has no 'alpha'"),
        (lambda d: d.pop("k"), "parameter table has no 'k'"),
        (lambda d: d["beta"].pop(), "beta[50] = None, but t, alpha and Delta give 37"),
        (lambda d: d["alpha"].pop(), "alpha has 49 entries where k = 50 and K = 6 need 50"),
        (lambda d: d["phi"].pop(), "phi has 49 entries where k = 50 and K = 6 need 50"),
        (lambda d: d["Delta"].pop(), "Delta has 6 entries where k = 50 and K = 6 need 7"),
        (lambda d: d.update(K=-1, Delta=[]), "k = 50 and K = -1 must not be negative"),
        (lambda d: d.update(phi=None), "parameter table: 'NoneType' object is not iterable"),
        (lambda d: d.update(Delta=0.294), "parameter table: 'float' object is not iterable"),
        (lambda d: d["alpha"].__setitem__(0, "1/10"),
         "alpha[1] > 0 but type 1 fits no reserved space"),
        # a float or a bool where an integer belongs is refused, not truncated
        (lambda d: d["phi"].__setitem__(1, 1.9), "phi[2] = 1.9 is not an integer"),
        (lambda d: d["phi"].__setitem__(0, False), "phi[1] = False is not an integer"),
        (lambda d: d.update(k=50.9), "k = 50.9 is not an integer"),
        (lambda d: d.update(K=6.0), "K = 6.0 is not an integer"),
        (lambda d: d["beta"].__setitem__(0, True), "beta[1] = True is not an integer"),
        (lambda d: d["varphi"].__setitem__(8, 1.0), "varphi[9] = 1.0 is not an integer"),
        (lambda d: d["gamma"].__setitem__(9, "1"), "gamma[10] = '1' is not an integer"),
        # an entry of t, alpha or Delta that is no rational is named as well
        (lambda d: d["t"].__setitem__(3, "abc"),
         "t[4] = 'abc': Invalid literal for Fraction: 'abc'"),
        (lambda d: d["t"].__setitem__(50, "1/0"), "t[51] = '1/0': zero denominator in '1/0'"),
        (lambda d: d["alpha"].__setitem__(8, None),
         "alpha[9] = None: Invalid literal for Fraction: 'None'"),
        (lambda d: d["Delta"].__setitem__(6, [1]),
         "Delta[6] = [1]: Invalid literal for Fraction: '[1]'"),
    ], ids=["phi-above-K", "phi-negative", "t-zero", "eps-negative", "no-alpha", "no-k",
            "short-beta", "short-alpha", "short-phi", "short-Delta", "negative-K",
            "null-phi", "number-Delta", "red-type-fits-no-space", "float-phi", "bool-phi",
            "float-k", "float-K", "bool-beta", "float-varphi", "string-gamma",
            "string-t", "zero-denominator-eps", "null-alpha", "list-Delta"])
    def test_one_line_each(self, table, edit, want):
        data = table.to_json_dict()
        edit(data)
        assert want in _read_and_validate(data)

    def test_long_entry_is_cut_short(self, table):
        data = table.to_json_dict()
        data["t"][3] = "7" * 5000  # past int()'s digit limit
        [msg] = _read_and_validate(data)
        assert msg.startswith("t[4] = '777777777777...7777777777777': ") and len(msg) < 300

    def test_not_a_dict(self):
        assert _read_and_validate(50) == [
            "parameter table: argument of type 'int' is not iterable"]

    @pytest.mark.parametrize("key,pos", [("t", 0), ("t", 20), ("alpha", 0),
                                         ("alpha", 10), ("Delta", 0)])
    @pytest.mark.parametrize("flag", [True, False])
    def test_bool_rational_refused(self, table, key, pos, flag):
        # JSON true/false would read as 1 and 0: as t[1], alpha[1] and
        # Delta[0] of the built-in table, whose values they are
        data = json.loads(table.dumps())
        data[key][pos] = flag
        entry = f"{key}[{pos if key == 'Delta' else pos + 1}]"
        assert _read_and_validate(data) == [f"{entry} = {flag}: {flag} is not a number"]


class TestClassify:
    @pytest.mark.parametrize("size,want", [
        ("0.5", 8), ("1", 1), ("0.02", 51), ("0.42", 9), ("0.41", 9),
        ("0.706", 2), ("0.707", 1), ("1/38", 51), ("0.027", 50), ("1/3", 14),
    ])
    def test_examples(self, table, size, want):
        p, q = Fraction(size).as_integer_ratio()
        assert table.classify(p, q) == table.classify(3 * p, 3 * q) == want

    def test_out_of_range(self, table):
        with pytest.raises(ValueError):
            table.classify(0, 1)
        with pytest.raises(ValueError):
            table.classify(11, 10)

    def test_breakpoints_are_right_closed(self, table):
        for i in range(1, 52):
            assert table.classify(*table.t[i].as_integer_ratio()) == i

    @given(st.integers(min_value=1, max_value=10 ** 9))
    @settings(max_examples=300, deadline=None)
    def test_interval_membership_inverse(self, num):
        table = builtin_shplus()
        q = Fraction(num, 10 ** 9)
        i = table.classify(q.numerator, q.denominator)
        assert table.t[i + 1] < q <= table.t[i]


class TestSerialization:
    def test_round_trip(self, table):
        again = ParamTable.from_json_dict(json.loads(table.dumps()))
        assert again == table

    def test_derived_keys_are_optional(self, table):
        data = table.to_json_dict()
        for key in ("beta", "varphi", "gamma"):
            del data[key]
        assert ParamTable.from_json_dict(data) == table

    def test_decimal_strings_parse_exactly(self):
        data = builtin_shplus().to_json_dict()
        assert "353/500" in data["t"]  # 0.706 stored exactly

    def test_load_from_file(self, table, tmp_path):
        p = tmp_path / "params.json"
        p.write_text(table.dumps(), encoding="utf-8")
        assert ParamTable.from_json_dict(json.loads(p.read_text(encoding="utf-8"))) == table


def _fraction_reader(x):
    """The reference reader: a number as itself, everything else through
    Fraction's own string parser, whose refusal names a token of more than
    40 characters cut short, as every error line does."""
    if isinstance(x, bool):
        raise ValueError(f"{x!r} is not a number")
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    try:
        return Fraction(str(x))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {shown(x)}") from None
    except ValueError as exc:  # Fraction repeats a malformed token whole
        if not str(exc).startswith("Invalid literal"):
            raise
        raise ValueError(f"Invalid literal for Fraction: {shown(str(x))}") from None


def _outcome(reader, x):
    try:
        return reader(x)
    except ValueError as exc:
        return ("ValueError", str(exc))


_DIGITS = list("0123456789") + ["\u0663", "\uff11", "\uff12"]  # ٣ １ ２
# "²" (superscript two) passes str.isdigit but is no decimal digit.  Exponents
# stay below four digits: Fraction("1e99999999") builds a 10^8-digit integer
_LONG_EXPONENT = re.compile(r"e[+-]?[\d_]{4}", re.IGNORECASE)
_TEXT = (st.text(st.sampled_from(_DIGITS + list("/.eE+-_ \t²")), max_size=10)
         .filter(lambda t: not _LONG_EXPONENT.search(t))
         | st.lists(st.sampled_from(_DIGITS), min_size=1, max_size=8).map("".join)
         .flatmap(lambda p: st.lists(st.sampled_from(_DIGITS), min_size=1,
                                     max_size=8).map(lambda q: f"{p}/{''.join(q)}")))
_TOKEN = _TEXT | st.sampled_from([None, [1, 2], True])
# malformed tokens whose exponent would pass the digit limit: Fraction's
# grammar refuses each, so no digit count is named
_MALFORMED_EXPONENTS = ["e5000", ".e9999", "1__0e4400", "_1e5000"]


class TestParseRational:
    @given(_TOKEN)
    @settings(max_examples=500, deadline=None)
    def test_matches_fraction_reader(self, x):
        got, want = _outcome(parse_rational, x), _outcome(_fraction_reader, x)
        assert got == want and type(got) is type(want), (x, got, want)

    @pytest.mark.parametrize("x", [
        "1/0", "+1/0", "-1/0", "0/0", "7", "0", "12/18", "\u0663/\uff11\uff12",
        "0.294", "1e-400", "-1/2", "+3", "1_000/3", " 1/2 ", "1 /2", "1/2/3", "/2",
        "2/", "", "²", "1/²", None, "0/['0', '0', '0', '0', '0', '0', '0', '0']",
        *_MALFORMED_EXPONENTS])
    def test_edge_tokens_match_fraction_reader(self, x):
        assert _outcome(parse_rational, x) == _outcome(_fraction_reader, x)

    @pytest.mark.parametrize("x,part", [
        ("7" * 4301, "4301-digit numerator"),
        ("1/" + "7" * 4301, "4301-digit denominator"),
        ("7" * 4301 + "/" + "3" * 4400, "4301-digit numerator"),
        ("\u0663" * 4301, "4301-digit numerator"),
        ("-" + "3" * 4301 + "/2", "4301-digit numerator"),
        ("0." + "5" * 4400, "4401-digit numerator"),
        ("1e" + "1" * 4301, "4301-digit exponent")])
    def test_digit_limit_message(self, x, part):
        # past Python's 4,300-digit limit int() refuses the numerator first,
        # where Fraction's reader refuses it too; the message names the part
        assert _outcome(_fraction_reader, x)[0] == "ValueError"
        assert _outcome(parse_rational, x) == (
            "ValueError", f"a token's {part} is over the limit of 4300 digits")

    def test_zero_denominator_message(self):
        with pytest.raises(ValueError, match=r"^zero denominator in '1/0'$"):
            parse_rational("1/0")


@pytest.mark.parametrize("call,want", [
    (lambda t: rectangle((1, 2), (1, 0)), "rectangle 1/2 x 1/0 outside (0,1]^2"),
    (lambda t: rectangle((1, 2), (0, 0)), "rectangle 1/2 x 0/0 outside (0,1]^2"),
    (lambda t: t.classify(1, 0), "item size 1/0 outside (0, 1]"),
    (lambda t: harmonic_type(1, 0, 38), "item size 1/0 outside (0, 1]"),
    (lambda t: TinyGrid(t.eps, Fraction(1, 10000)).class_of(1, 0, "height"),
     "height 1/0 outside the tiny range (0, 1/38]"),
    # str() refuses a 5001-digit numerator: the sides are named by digit counts
    (lambda t: t.classify(10 ** 5000, 0),
     "item size with a 5001-digit numerator and denominator 0 outside (0, 1]"),
    (lambda t: harmonic_type(10 ** 5000, 0, 38),
     "item size with a 5001-digit numerator and denominator 0 outside (0, 1]"),
    (lambda t: TinyGrid(t.eps, Fraction(1, 10000)).class_of(10 ** 5000, 0),
     "width with a 5001-digit numerator and denominator 0 outside the tiny range "
     "(0, 1/38]"),
], ids=["rectangle-height", "rectangle-zero-height", "classify", "harmonic-type",
        "tiny-grid", "classify-long-numerator", "harmonic-type-long-numerator",
        "tiny-grid-long-numerator"])
def test_zero_denominator_pair_names_its_side(table, call, want):
    # a pair with q = 0 breaks the q > 0 contract of these entry points; each
    # refuses it with one line, not with Fraction's ZeroDivisionError
    with pytest.raises(ValueError) as exc:
        call(table)
    assert str(exc.value) == want


def _check_pair(x):
    """parse_pair(x) is a pair p/q, q > 0, of the value parse_rational must
    give x (the reference reader's, as TestParseRational checks), or raises
    its error message; where int() refuses a part for its digits, the message
    names that part instead."""
    want = _outcome(_fraction_reader, x)
    try:
        p, q = parse_pair(x)
    except ValueError as exc:
        if isinstance(want, tuple) and want[1].startswith("Exceeds the limit (4300 digits)"):
            assert re.fullmatch(r"a token's \d+-digit (numerator|denominator|exponent) "
                                r"is over the limit of 4300 digits", str(exc)), x[:10]
        else:
            assert ("ValueError", str(exc)) == want, x
    else:
        assert q > 0 and Fraction(p, q) == want, (x, p, q, want)


class TestReadSize:
    """A size token read to an integer pair by params.parse_pair."""

    @given(_TEXT)
    @settings(max_examples=500, deadline=None)
    def test_pair_matches_parse_rational(self, x):
        _check_pair(x)

    @pytest.mark.parametrize("x", [
        "1/0", "0/0", "7/0", "-1/2", "+3", "1_000/3", "1/-2", "0", "2/4",
        "500000/1000000", "0.294", "\u0663/\uff11\uff12", "7" * 4301,
        "1/" + "7" * 4301, "7" * 4301 + "/0", "7" * 4301 + "/" + "3" * 4400,
        "1" * 39 + "x", "1" * 40 + "x", "1" * 1000 + "x", "1/" + "2" * 1000 + "x",
        *_MALFORMED_EXPONENTS])
    def test_edge_tokens_match_parse_rational(self, x):
        _check_pair(x)

    @pytest.mark.parametrize("at,over,part", [
        ("7" * 4300, "7" * 4301, "4301-digit numerator"),
        ("1/" + "7" * 4300, "1/" + "7" * 4301, "4301-digit denominator"),
        ("1e4299", "1e4300", "4301-digit numerator"),
        ("1e-4299", "1e-4300", "4301-digit denominator"),
        ("1e-" + "0" * 4299 + "1", "1e-" + "0" * 4300 + "1", "4301-digit exponent")],
        ids=["digits", "denominator", "exponent", "negative-exponent", "exponent-digits"])
    def test_digit_limit_is_inclusive(self, at, over, part):
        # a part is counted as written: 1e-4299 is 1/10^4299, of 4,300 digits,
        # and is read, while one digit more is refused
        assert Fraction(*parse_pair(at)) == Fraction(at)
        with pytest.raises(ValueError, match=f"^a token's {part} is over the limit "
                                             f"of 4300 digits$"):
            parse_pair(over)

    def test_reads_as_the_prior_reader(self):
        # seeded tokens over digits, Unicode digits and the characters of
        # every form: the same pair or message as the reader that called
        # Fraction(token), but for a token Fraction's grammar refuses, whose
        # exponent the prior reader's looser pre-check counted
        rng = random.Random(43)
        chars = _DIGITS + list("/.eE+-_ \t²xd")
        tokens = ["".join(rng.choices(chars, k=rng.randint(0, 10))) for _ in range(20000)]
        tokens += ["1234." + "5" * 4300, "5" * 4301 + ".5", "-1/" + "0" * 5000, "-0/0",
                   "1.d", "1.de99999", "1" * 5000 + "x", "1_" * 4300 + "1", "0.1e4299"]
        moved = []
        for token in tokens:
            got, want = _outcome(parse_pair, token), _outcome(prior_reader.parse_pair, token)
            if got != want:
                assert fractions._RATIONAL_FORMAT.match(token) is None, token[:80]
                assert got[1] == f"Invalid literal for Fraction: {shown(token)}", token[:80]
                assert want[1].endswith("is over the limit of 4300 digits"), token[:80]
                moved.append(token)
        assert "1" * 5000 + "x" in moved and len(moved) < 100

    def test_digit_tokens_read_as_written(self):
        assert parse_pair("2/4") == (2, 4)
        assert parse_pair("500000/1000000") == (500000, 1000000)
        assert parse_pair("7") == (7, 1)
