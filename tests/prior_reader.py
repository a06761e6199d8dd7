"""The token reader that ``params.parse_pair`` replaced, kept as an oracle.

It read digits[/digits] as written and handed every other token to
``Fraction(token)``, after a looser regex of its own had counted an
exponent's digits.  ``tests/test_params.py`` reads seeded tokens with both
readers: each token must give the same pair or the same message, except a
token that Fraction's grammar refuses (``e5000``, say), where this reader's
pre-check named a digit count and ``parse_pair`` names the malformed token.
"""

import re
import sys
from fractions import Fraction

from harmonicpack.params import shown

_EXPONENT_FORM = r"\s*[-+]?(\d*)(?:\.(\d*))?[eE]([-+]?\d+)\s*"


def _refuse_over_limit(**digits) -> None:
    limit = sys.get_int_max_str_digits()
    for part, count in digits.items():
        if count > limit:
            raise ValueError(f"a token's {count}-digit {part} is over the limit of "
                             f"{limit} digits") from None


def parse_pair(token: str) -> tuple:
    p, slash, q = token.partition("/")
    digits_only = p.isdecimal() and (q.isdecimal() or not slash)
    form = (not digits_only and ("e" in token or "E" in token)
            and re.fullmatch(_EXPONENT_FORM, token.replace("_", "")))
    if form:
        whole, fraction, exponent = form.groups("")
        _refuse_over_limit(exponent=len(exponent.lstrip("+-")))
        e = int(exponent)
        _refuse_over_limit(numerator=len(whole + fraction) + max(e, 0),
                           denominator=len(fraction) + max(-e, 0) + 1)
    try:
        if digits_only:
            p, q = int(p), int(q) if slash else 1
        else:
            p, q = Fraction(token).as_integer_ratio()
    except ZeroDivisionError:
        q = 0
    except ValueError:
        _refuse_over_limit(numerator=sum(map(str.isdecimal, p)),
                           denominator=sum(map(str.isdecimal, q)))
        raise ValueError(f"Invalid literal for Fraction: {shown(token)}") from None
    if not q:
        raise ValueError(f"zero denominator in {shown(token)}")
    return p, q
