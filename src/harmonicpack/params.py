"""Parameter tables for Super-Harmonic style online bin packing.

A Super-Harmonic instance is chosen by four free arrays and two sizes k, K:

  * ``t[1] = 1 > t[2] > ... > t[k+1] = eps > t[k+2] = 0`` -- size breakpoints.
    An item of size ``x`` has type ``i`` iff ``t[i+1] < x <= t[i]``; items of
    type ``k+1`` (size at most ``eps``) are packed by Next Fit.
  * ``alpha[i]`` -- fraction of type-i items coloured red.
  * ``Delta[0] = 0 < Delta[1] < ... < Delta[K] < 1/2`` -- the finite menu of
    reserved spaces into which red items may be packed.
  * ``phi[i]`` -- index of the reserved space assigned to blue-i bins
    (0 means blue-i bins accept no red items).

The other columns follow from these:

  * ``beta[i] = floor(1/t[i])`` -- blue items of type i per bin.
  * ``delta[i] = 1 - t[i]*beta[i]`` -- space left by a full blue load.
  * ``varphi[i] = min{j : t[i] <= Delta[j]}`` -- the smallest reserved space a
    red type-i item fits into.
  * ``gamma[i] = max(1, floor(Delta[1]/t[i]))`` -- red items of type i per
    reserved space.

A type that makes no red items (``alpha[i] = 0``), or whose items fit no
reserved space, has ``varphi[i] = gamma[i] = 0``.

All entries are exact rationals; decimal literals such as ``0.294`` are
parsed as exact base-10 fractions.  Every rational token is read by
``parse_pair``: digits[/digits] as written, any other form by one match
against the grammar ``fractions`` itself compiles, whose digit runs give the
pair.  A size reaches ``classify`` as an integer pair (p, q).  It is typed
from a fixed table of ``_BUCKETS`` equal buckets over (0, 1], built from the
breakpoints at the first ``classify``: the bucket floor(p/q * _BUCKETS)
gives a base type, and the size is compared exactly with the few
breakpoints that lie in that bucket.  The built-in instance ("SH+") is built
once per process; it is the one used by the 2D slice packer and the ratio
certifier.
"""

from __future__ import annotations

import json
import reprlib
import sys
from fractions import _RATIONAL_FORMAT, Fraction
from functools import cached_property
from itertools import zip_longest
from math import gcd, lcm

# a number of more than this many digits is named by its digit count
_NAMED_DIGITS = 40
# an error line shows a value from outside by ``shown``: an int of more than
# _NAMED_DIGITS digits, or a str of more characters, is cut short in the middle
_SHORT = reprlib.Repr()
_SHORT.maxlong, _SHORT.maxstring = _NAMED_DIGITS, _NAMED_DIGITS + 2  # + 2 quotes
shown = _SHORT.repr
# classify()'s buckets over (0, 1]: the built-in table's closest breakpoints,
# 1/38 and 1/37, are 1/1406 apart, so each bucket holds at most one of them
_BUCKETS = 2048


def _refuse_over_limit(**digits) -> None:
    """Refuse a token whose part (``numerator=4301``, say) has more digits
    than int() reads and str() writes, sys.get_int_max_str_digits()."""
    limit = sys.get_int_max_str_digits()
    for part, count in digits.items():
        if count > limit:
            raise ValueError(f"a token's {count}-digit {part} is over the limit of "
                             f"{limit} digits")


def parse_pair(token: str) -> tuple:
    """A rational token as an integer pair (p, q), q > 0: digits[/digits] as
    written ("2/4" is (2, 4)), any other form Fraction reads in lowest terms,
    from the digit runs of one match of Fraction's own grammar.  Refused when a
    digit run is longer than int() reads, or when an exponent gives the numerator
    or denominator, as written, more digits than that ("1e-5" is 1/100000)."""
    p, slash, q = token.partition("/")
    if p.isdecimal() and (q.isdecimal() or not slash):  # as written
        if len(token) > sys.get_int_max_str_digits():  # each run is at most that long
            _refuse_over_limit(numerator=len(p), denominator=len(q))
        p, q = int(p), int(q) if slash else 1
    else:
        form = _RATIONAL_FORMAT.match(token)
        # Python 3.11's grammar has d* for \d*: it matches "1.d", which Fraction refuses
        if form is None or (form["decimal"] or "").isalpha():
            raise ValueError(f"Invalid literal for Fraction: {shown(token)}")
        runs = form.groupdict("").values()  # sign, num, denom, decimal, exp
        sign, whole, q, fraction, exponent = (
            [run.replace("_", "") for run in runs] if "_" in token else runs)
        e = 0
        if exponent:  # its digits are counted before any power of ten is built
            _refuse_over_limit(exponent=len(exponent.lstrip("+-")))
            e = int(exponent)
        if exponent or max(len(whole), len(fraction), len(q)) > sys.get_int_max_str_digits():
            _refuse_over_limit(numerator=len(whole + fraction) + max(e, 0),
                               denominator=len(q) or len(fraction) + max(-e, 0) + 1)
        p = int(whole or 0) * 10 ** len(fraction) + int(fraction or 0)
        e -= len(fraction)  # the token is p * 10^e / q
        p, q = (p * 10 ** e, int(q or 1)) if e >= 0 else (p, int(q or 1) * 10 ** -e)
        g = gcd(p, q) or 1  # "-0/0" reaches the zero check below
        p, q = (-p if sign == "-" else p) // g, q // g
    if not q:  # "1/0" is malformed input, not an arithmetic fault
        raise ValueError(f"zero denominator in {shown(token)}")
    return p, q


def parse_rational(text: str | int | float | Fraction) -> Fraction:
    """Parse "353/500", "0.294", or a number into an exact Fraction."""
    if not isinstance(text, str):  # strings skip the slower ABC checks
        if isinstance(text, Fraction):
            return text
        if isinstance(text, bool):  # JSON true/false, an int to Python
            raise ValueError(f"{text!r} is not a number")
        if isinstance(text, int):
            return Fraction(text)
        if isinstance(text, float):
            text = repr(text)  # 0.294 is the decimal 294/1000, not its binary image
    return Fraction(*parse_pair(str(text)))


def decimal_digits(n: int) -> int:
    """Decimal digits of n >= 1, counted up from a lower bound read from its
    bit length (0.30102999566 < log10(2))."""
    d = (n.bit_length() - 1) * 30102999566 // 10 ** 11 + 1
    while n >= 10 ** d:
        d += 1
    return d


def named(p: int, q: int, side: str, digits=None) -> str:
    """``side p/q`` in lowest terms, as in ``width 1/3`` or ``width 1/0``; by
    digit counts where its numerator or denominator has more than
    ``_NAMED_DIGITS`` digits, as in ``width with a 1-digit numerator and a
    401-digit denominator``.  ``digits`` are p's and q's digit counts if known."""
    g = gcd(p, q) if q else 1
    if g > 1:
        p, q, digits = p // g, q // g, None
    dn, dd = digits or (decimal_digits(abs(p) or 1), decimal_digits(q or 1))
    if max(dn, dd) <= _NAMED_DIGITS:
        return f"{side} {Fraction(p, q) if q else f'{p}/0'}"
    return (f"{side} with a {dn}-digit numerator and "
            + (f"a {dd}-digit denominator" if q else "denominator 0"))


def exact_add(num: int, den: int, p: int, q: int) -> tuple:
    """``num/den + p/q`` as an integer pair over lcm(den, q); ``p/q`` need
    not be in lowest terms."""
    if den % q:
        m = lcm(den, q)
        num, den = num * (m // den), m
    return num + p * (den // q), den


def on_one_denominator(xs) -> tuple:
    """(den, nums): the rationals ``xs`` as integers over their lcm denominator."""
    den = lcm(*(x.denominator for x in xs))
    return den, [x.numerator * (den // x.denominator) for x in xs]


class Frozen:
    """Base of the package's immutable classes: ``__init__`` sets every
    attribute once, through ``_set``, and assigning one later raises
    AttributeError."""

    def _set(self, **attrs):
        # object.__setattr__, not vars(self).update: asking for __dict__
        # builds a dict, and attribute reads from it are slower
        for name, value in attrs.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")


class ParamTable(Frozen):
    """A Super-Harmonic parameter instance, built from its free arrays ``t``,
    ``alpha``, ``Delta`` and ``phi``; ``beta``, ``delta``, ``varphi`` and
    ``gamma`` are derived from them by the rules above.

    Arrays are 1-indexed (index 0 is padding) so that code reads like the
    definitions above: ``t[i]``, ``alpha[i]`` etc. for ``1 <= i <= k``.
    ``t`` has entries ``1..k+2``.  Row ``k+1`` (the Next-Fit tail type) has
    no alpha/beta/... attributes.  Instances are immutable and safe to share;
    two tables are equal, and hash alike, when their free arrays are equal.
    ``classify``'s bucket table, which depends on ``t`` alone, is built at
    the first ``classify``.

    Raises ValueError when an array's length disagrees with k and K, or when
    some t[1..k+1] lies outside (0, 1].  Every other rule is :func:`validate`'s.
    """

    def __init__(self, k: int, K: int, t: tuple, alpha: tuple, Delta: tuple, phi: tuple):
        # t[1..k+2] with index 0 None, alpha[1..k], Delta[0..K], phi[1..k] in 0..K
        if k < 0 or K < 0:
            raise ValueError(f"k = {k} and K = {K} must not be negative")
        for name, got, want in (("t", len(t) - 1, k + 2), ("alpha", len(alpha) - 1, k),
                                ("Delta", len(Delta), K + 1), ("phi", len(phi) - 1, k)):
            if got != want:
                raise ValueError(f"{name} has {got} entries where k = {k} and K = {K} "
                                 f"need {want}")
        bad = next((i for i in range(1, k + 2) if not 0 < t[i] <= 1), None)
        if bad:
            raise ValueError(f"t[{bad}] outside (0, 1]")
        beta, varphi, gamma = [None], [None], [None]
        for i in range(1, k + 1):
            beta.append(1 // t[i])
            # the smallest space a red item fits; 0 for no reds or no such space
            j = (next((j for j in range(1, K + 1) if t[i] <= Delta[j]), 0)
                 if alpha[i] > 0 else 0)
            varphi.append(j)
            gamma.append(max(1, Delta[1] // t[i]) if j else 0)
        self._set(k=k, K=K, t=t, alpha=alpha, Delta=Delta, phi=phi, beta=tuple(beta),
                  delta=(None, *(1 - t[i] * beta[i] for i in range(1, k + 1))),
                  varphi=tuple(varphi), gamma=tuple(gamma))

    def __eq__(self, other):
        return isinstance(other, ParamTable) and self._free() == other._free()

    def __hash__(self):
        return hash(self._free())

    def _free(self) -> tuple:
        return self.k, self.K, self.t, self.alpha, self.Delta, self.phi

    @property
    def eps(self) -> Fraction:
        return self.t[self.k + 1]

    @cached_property
    def _buckets(self) -> list:
        """``classify``'s table, one row per bucket b = 0, ..., ``_BUCKETS``
        of the sizes x with floor(x * _BUCKETS) = b: (base, inside), where
        base is k+1 less the number of breakpoints t[k+1], ..., t[2] in the
        buckets below b, and inside holds those in bucket b as integer pairs
        (tn, td).  Equal rows are one object."""
        inside = {}
        for i in range(2, self.k + 2):
            tn, td = self.t[i].as_integer_ratio()
            inside.setdefault(tn * _BUCKETS // td, []).append((tn, td))
        rows, shared, base = [], {}, self.k + 1
        for b in range(_BUCKETS + 1):
            row = (base, tuple(inside.get(b, ())))
            rows.append(shared.setdefault(row, row))
            base -= len(row[1])
        return rows

    def classify(self, p: int, q: int) -> int:
        """Type of an item of size p/q (q > 0, not necessarily in lowest
        terms): the unique i with t[i+1] < p/q <= t[i], that is k+1 less the
        number of breakpoints t[k+1], ..., t[2] below p/q.

        A breakpoint t lies below p/q if its bucket is below p/q's bucket
        b = floor(p * _BUCKETS / q), and not if it is above; one in bucket b
        lies below exactly when tn*q < p*td.  So the type is the base of
        bucket b less the breakpoints inside b that pass that test, exact for
        any table and any p, q.

        Raises ValueError outside (0, 1].
        """
        if not 0 < p <= q:
            raise ValueError(f"{named(p, q, 'item size')} outside (0, 1]")
        i, inside = self._buckets[p * _BUCKETS // q]
        for tn, td in inside:
            if tn * q < p * td:
                i -= 1
        return i

    # -- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict:
        def arr(seq, start):
            return [str(x) for x in seq[start:]]

        return {
            "k": self.k,
            "K": self.K,
            "t": arr(self.t, 1),
            "alpha": arr(self.alpha, 1),
            "beta": list(self.beta[1:]),
            "gamma": list(self.gamma[1:]),
            "phi": list(self.phi[1:]),
            "varphi": list(self.varphi[1:]),
            "Delta": arr(self.Delta, 0),
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    @classmethod
    def from_json_dict(cls, data: dict) -> "ParamTable":
        """The table of a parsed ``dump-params`` JSON.  It needs ``k``, ``K``,
        ``t``, ``alpha``, ``Delta`` and ``phi``; ``beta``, ``varphi`` and
        ``gamma`` may be left out, and each one given must equal the derived
        column.  ``k``, ``K``, ``phi`` and those three hold JSON integers: a
        float or a bool there is refused, not truncated.  Raises ValueError,
        naming the first key or entry at fault."""
        try:
            missing = next((key for key in ("k", "K", "t", "alpha", "Delta", "phi")
                            if key not in data), None)
            if missing:
                raise ValueError(f"parameter table has no {missing!r}")
            k = _json_int(data["k"], "k")
            t = [_json_rational(x, f"t[{i}]") for i, x in enumerate(data["t"], 1)]
            if len(t) == k + 1:  # trailing 0 may be omitted
                t.append(Fraction(0))
            table = cls(k=k, K=_json_int(data["K"], "K"), t=(None, *t),
                        alpha=(None, *(_json_rational(x, f"alpha[{i}]")
                                       for i, x in enumerate(data["alpha"], 1))),
                        Delta=tuple(_json_rational(x, f"Delta[{j}]")
                                    for j, x in enumerate(data["Delta"])),
                        phi=(None, *(_json_int(x, f"phi[{i}]")
                                     for i, x in enumerate(data["phi"], 1))))
            for name in ("beta", "varphi", "gamma"):
                derived = getattr(table, name)[1:]
                given = [_json_int(x, f"{name}[{i}]")
                         for i, x in enumerate(data.get(name, derived), 1)]
                for i, (g, d) in enumerate(zip_longest(given, derived), 1):
                    if g != d:
                        raise ValueError(f"{name}[{i}] = {g}, but t, alpha and Delta "
                                         f"give {d}")
        except TypeError as exc:  # a number where a dict or list belongs, or a null
            raise ValueError(f"parameter table: {exc}") from None
        return table


def _json_rational(x, where: str) -> Fraction:
    """``parse_rational(x)``, with its ValueError naming ``where`` and x, cut
    short if long."""
    try:
        return parse_rational(x)
    except ValueError as exc:
        raise ValueError(f"{where} = {reprlib.repr(x)}: {exc}") from None


def _json_int(x, where: str) -> int:
    """``x`` if it is an integer, and not a bool; else a ValueError naming ``where``."""
    if not isinstance(x, int) or isinstance(x, bool):
        raise ValueError(f"{where} = {x!r} is not an integer")
    return x


# -- the built-in SH+ instance (k = 50, K = 6, eps = 1/38) -----------------

# Rows 1..20 and 50: (i, t_i, alpha_i, phi_i).  Rows 21..49 follow closed
# forms, see builtin_shplus().
_EXPLICIT_ROWS = [
    (1, "1", "0", 0),
    (2, "0.706", "0", 1),
    (3, "0.657", "0", 2),
    (4, "0.647", "0", 3),
    (5, "0.625", "0", 4),
    (6, "0.6", "0", 5),
    (7, "0.58", "0", 6),
    (8, "0.5", "0", 0),
    (9, "0.42", "0.162", 0),
    (10, "0.4", "0.192", 0),
    (11, "0.375", "0.2346", 0),
    (12, "0.353", "0.3004", 1),
    (13, "0.343", "0.3077", 1),
    (14, "1/3", "0", 0),
    (15, "0.294", "0.0816", 0),
    (16, "1/4", "0.186", 0),
    (17, "1/5", "0.092", 0),
    (18, "1/6", "0.1456", 0),
    (19, "0.147", "0.2162", 0),
    (20, "1/7", "0.1525", 0),
    (50, "1/37", "0", 0),
]

_DELTAS = ["0", "0.294", "0.343", "0.353", "0.375", "0.4", "0.42"]


def middle_red_fraction(i: int) -> Fraction:
    """Red fraction used on rows 21..49: 1.35*(50-i) / (37*(i-12))."""
    return Fraction(27 * (50 - i), 740 * (i - 12))


_builtin = None  # the built-in table, once builtin_shplus() has built it


def builtin_shplus() -> ParamTable:
    """The built-in 50-type instance with reserved spaces {0.294, ..., 0.42},
    built at the first call: every call returns that one immutable table."""
    global _builtin
    if _builtin is None:
        rows = {i: (parse_rational(t), parse_rational(a), p)
                for i, t, a, p in _EXPLICIT_ROWS}
        for i in range(21, 50):
            rows[i] = (Fraction(1, i - 13), middle_red_fraction(i), 0)
        t, alpha, phi = zip(*(rows[i] for i in range(1, 51)))
        _builtin = ParamTable(k=50, K=6, t=(None, *t, Fraction(1, 38), Fraction(0)),
                              alpha=(None, *alpha),
                              Delta=tuple(map(parse_rational, _DELTAS)), phi=(None, *phi))
    return _builtin


def validate(table: ParamTable) -> list:
    """Check a table against the definitional constraints.

    Returns a list of human-readable violation strings (empty when the table
    is consistent).  Violations are data, not exceptions.
    """
    v: list = []
    k, K = table.k, table.K

    if table.t[1] != 1:
        v.append("t[1] != 1")
    if table.t[k + 2] != 0:
        v.append(f"t[{k + 2}] != 0")
    for i in range(1, k + 2):
        if not table.t[i] > table.t[i + 1]:
            v.append(f"t not strictly decreasing at row {i}")
    if table.eps.numerator != 1:  # the constructor holds eps in (0, 1]
        v.append(f"1/eps = {1 / table.eps} is not an integer: the 2D height "
                 f"weighting stacks at Harmonic index 1/eps")

    if table.Delta[0] != 0:
        v.append("Delta[0] != 0")
    for j in range(1, K + 1):
        if not table.Delta[j] > table.Delta[j - 1]:
            v.append(f"Delta not strictly increasing at {j}")
    if not table.Delta[K] < Fraction(1, 2):
        v.append("Delta[K] must be below 1/2")

    for i in range(1, k + 1):
        if not (0 <= table.alpha[i] <= 1):
            v.append(f"alpha[{i}] outside [0,1]")
        if not (0 <= table.phi[i] <= K):
            v.append(f"phi[{i}] outside 0..K")
        elif table.phi[i] > 0 and not table.Delta[table.phi[i]] <= table.delta[i]:
            v.append(f"Delta[phi[{i}]] > delta[{i}]")
        if table.alpha[i] > 0 and table.varphi[i] == 0:
            v.append(f"alpha[{i}] > 0 but type {i} fits no reserved space")
    return v
