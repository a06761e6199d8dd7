"""Deterministic instance generators for packing experiments.

Every generator is driven by a named seed through Python's Mersenne
Twister (``random.Random``), whose sequence is stable across platforms and
versions, so a spec (kind, n, seed, dims, bins) always produces the same
list. Sizes are exact rationals on a 10^-6 grid: a 1D size is an integer
pair (p, q) of value p/q, in lowest terms when generated, and a rectangle
is an ``Item2D``, the tuple (wp, wq, hp, hq) of its two sides' pairs.

Kinds:

  * ``uniform`` -- sizes (or both rectangle sides) uniform on the grid of
    (0, 1].
  * ``harmonic-adversarial`` -- sizes 10^-6 above the greedy sequence 1/2,
    1/3, 1/7, 1/43, the classic waste-maximizing stream for
    interval-classifying packers; items are emitted round-robin so every
    prefix is balanced (in 2D the heights are uniform).
  * ``tiled-known-opt`` -- ``bins`` copies of a pattern that tiles a bin
    exactly, shuffled: the sizes 0.51 and 0.49 in 1D, four 1/2 x 1/2
    squares in 2D. The optimal cost equals ``bins`` and is recorded.
  * ``file`` -- read from ``path`` (one size, or "w h", per line; ``#``
    comments).  Every token becomes an integer pair by ``params.parse_pair``,
    so "2/4" reads as (2, 4), and a line "w h" becomes the ``Item2D`` of
    its two pairs.  The file is read in chunks of whole lines (about 64 KiB
    each), never whole.  A plain chunk, the format ``gen`` writes, has only
    ASCII tokens digits[/digits], exactly one (1D) or two (2D) a line, one
    space apart, and "\\n" line ends, with no blank, padded or comment line;
    its integers are read at once by one regex check and one JSON parse, with
    the rule of ``parse_pair`` (a bare integer p is (p, 1)).  Every other
    chunk, and a plain one with a leading zero, an integer too long for
    ``int``, a zero denominator or a 2D side outside (0, 1], is read line
    by line, so the items and any error, and its line, are the same either
    way.

A generated instance holds at most ``_MAX_ITEMS`` (10^7) items or
``_MAX_RECTANGLES`` (3 * 10^6) rectangles; a larger count is refused before
any list is built.  Files are not capped.
"""

from __future__ import annotations

import json
import random
import re
from collections import namedtuple
from fractions import Fraction
from math import gcd

from .params import named, parse_pair, parse_rational

GRID = 10 ** 6

_LEVELS = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 7), Fraction(1, 43))
_JITTER = Fraction(1, GRID)
_PATTERN_1D = ((51, 100), (49, 100))
_TILES_2D = 2  # the 2D pattern is a 2 x 2 grid of squares
# the most items a generated 1D instance holds: a 1D SH+ run of 10**6 sizes
# peaks at about 280 MB, so 10**7 is about 2.8 GB
_MAX_ITEMS = 10 ** 7
# the most rectangles a generated 2D instance holds: 10**5 uniform rectangles
# packed in both orientations grow the peak RSS by about 81 MB (810 B each, 216
# B of them the rectangles), so 3 * 10**6 stays below the 1D cap's 2.8 GB
_MAX_RECTANGLES = 3 * 10 ** 6

# a file is read in chunks of whole lines of about this many characters; a
# plain chunk has `dims` tokens digits[/digits] a line, one space apart, each
# line ended by "\n" (re caches each pattern when it is first used)
_CHUNK = 1 << 16
_TOKEN = "[0-9]+(?:/[0-9]+)?"
_PLAIN_LINES = {1: f"(?:{_TOKEN}\n)*", 2: f"(?:{_TOKEN} {_TOKEN}\n)*"}
_BARE = "(?<![0-9/])([0-9]+)(?![0-9/])"  # a token with no "/"


class Item2D(tuple):
    """A rectangle as the integers (wp, wq, hp, hq) of its width wp/wq and
    height hp/hq, q > 0, as written (not necessarily in lowest terms); equal
    tuples are equal rectangles, but "1/2" and "2/4" sides give unequal ones.
    ``Item2D(w, h)`` reads two rationals, ``from_pairs`` two integer pairs;
    both refuse a side outside (0, 1]."""

    __slots__ = ()

    def __new__(cls, w, h):
        return cls.from_pairs(parse_rational(w).as_integer_ratio(),
                              parse_rational(h).as_integer_ratio())

    @classmethod
    def from_pairs(cls, w: tuple, h: tuple) -> "Item2D":
        (wp, wq), (hp, hq) = w, h
        if not (0 < wp <= wq and 0 < hp <= hq):
            raise ValueError(f"{named(wp, wq, 'rectangle')} {named(hp, hq, 'x')} "
                             f"outside (0,1]^2")
        return tuple.__new__(cls, (wp, wq, hp, hq))

    @property
    def w(self) -> Fraction:
        return Fraction(self[0], self[1])

    @property
    def h(self) -> Fraction:
        return Fraction(self[2], self[3])

    @property
    def transposed(self) -> "Item2D":
        """The rectangle turned a quarter: (hp, hq, wp, wq), not re-checked."""
        wp, wq, hp, hq = self
        return tuple.__new__(Item2D, (hp, hq, wp, wq))

    def __reduce__(self):  # copy and pickle rebuild the pairs as written
        return Item2D.from_pairs, (self[:2], self[2:])


InstanceSpec = namedtuple("InstanceSpec", [
    "kind",  # uniform | harmonic-adversarial | tiled-known-opt | file
    "n",
    "seed",
    "dims",
    "bins",  # tiled-known-opt; None means max(1, n)
    "path",  # file
], defaults=(0, 0, 1, None, None))

Instance = namedtuple("Instance", [
    "spec",
    "items",  # (p, q) integer pairs (1D) or Item2D (2D)
    "known_opt",
], defaults=(None,))


def _uniform_pair(rng: random.Random) -> tuple:
    """A uniform size on the grid, as a pair in lowest terms."""
    p = rng.randint(1, GRID)
    g = gcd(p, GRID)
    return p // g, GRID // g


def _read_lines(lines, dims: int, items: list) -> None:
    """Append the items of ``lines`` to ``items``, one line at a time: any
    layout, any token form ``parse_pair`` reads, errors in line order."""
    for line in lines:
        parts = line.partition("#")[0].split()
        if len(parts) == dims:
            items.append(parse_pair(parts[0]) if dims == 1 else
                         Item2D.from_pairs(parse_pair(parts[0]),
                                           parse_pair(parts[1])))
        elif parts:
            what = "one size" if dims == 1 else "'w h'"
            raise ValueError(f"expected {what} per line, got "
                             f"{line.partition('#')[0].strip()!r}")


def _read_plain(lines, dims: int) -> list | None:
    """The items of a chunk of plain lines, read in bulk, as ``_read_lines``
    reads them.  None for any other chunk, and for a plain one with a token
    JSON refuses or a line ``_read_lines`` refuses: that chunk is left to
    ``_read_lines``, for its items or its error."""
    text = "".join(lines)
    if not text.endswith("\n"):  # the file's last line
        text += "\n"
    if not re.fullmatch(_PLAIN_LINES[dims], text):
        return None
    if text.count("/") < len(lines) * dims:
        text = re.sub(_BARE, r"\1/1", text)
    try:  # JSON refuses a leading zero and an integer over int's digit limit
        ints = json.loads("[" + text[:-1].replace("/", ",").replace("\n", ",")
                          .replace(" ", ",") + "]")
    except ValueError:
        return None
    if 0 in ints[1::2]:  # "p/0" is parse_pair's error
        return None
    it = iter(ints)
    pairs = list(zip(it, it))
    if dims == 1:
        return pairs
    try:
        return list(map(Item2D.from_pairs, pairs[::2], pairs[1::2]))
    except ValueError:  # a side outside (0, 1]
        return None


def _check_count(count: int, dims: int) -> None:
    """Refuse a generated instance of more than ``_MAX_ITEMS`` items or
    ``_MAX_RECTANGLES`` rectangles."""
    most, what = (_MAX_ITEMS, "items") if dims == 1 else (_MAX_RECTANGLES, "rectangles")
    if count > most:
        raise ValueError(f"an instance of {count} {what} exceeds the cap of {most}")


def generate(spec: InstanceSpec) -> Instance:
    if spec.kind in ("uniform", "harmonic-adversarial"):
        _check_count(spec.n, spec.dims)
    if spec.kind == "uniform":
        rng = random.Random(spec.seed)
        if spec.dims == 1:
            items = [_uniform_pair(rng) for _ in range(spec.n)]
        else:
            items = [Item2D.from_pairs(_uniform_pair(rng), _uniform_pair(rng))
                     for _ in range(spec.n)]
        return Instance(spec=spec, items=items)

    if spec.kind == "harmonic-adversarial":
        pairs = [(lv + _JITTER).as_integer_ratio() for lv in _LEVELS]
        rng = random.Random(spec.seed)
        if spec.dims == 1:
            items = [pairs[i % len(pairs)] for i in range(spec.n)]
        else:
            items = [Item2D.from_pairs(pairs[i % len(pairs)], _uniform_pair(rng))
                     for i in range(spec.n)]
        return Instance(spec=spec, items=items)

    if spec.kind == "tiled-known-opt":
        bins = max(1, spec.n) if spec.bins is None else spec.bins
        _check_count(bins * (len(_PATTERN_1D) if spec.dims == 1 else _TILES_2D ** 2),
                     spec.dims)
        rng = random.Random(spec.seed)
        if spec.dims == 1:
            items = [s for _ in range(bins) for s in _PATTERN_1D]
        else:
            tile = Item2D.from_pairs((1, _TILES_2D), (1, _TILES_2D))
            items = [tile for _ in range(bins * _TILES_2D ** 2)]
        rng.shuffle(items)
        return Instance(spec=spec, items=items, known_opt=bins)

    if spec.kind == "file":
        dims = 1 if spec.dims == 1 else 2  # tokens per line; any other dims is 2D
        items = []
        with open(spec.path, "r", encoding="utf-8") as fh:
            while lines := fh.readlines(_CHUNK):
                plain = _read_plain(lines, dims)
                if plain is None:
                    _read_lines(lines, dims, items)
                else:
                    items += plain
        return Instance(spec=spec, items=items)

    raise ValueError(f"unknown instance kind {spec.kind!r}")
