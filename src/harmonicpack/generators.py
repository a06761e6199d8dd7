"""Deterministic instance generators for packing experiments.

Every generator is driven by a named seed through Python's Mersenne
Twister (``random.Random``), whose sequence is stable across platforms and
versions, so a spec (kind, n, seed, dims, bins) always produces the same
items. Sizes are exact rationals on a 10^-6 grid: a 1D size is an integer
pair (p, q) of value p/q, in lowest terms when generated, and a rectangle
is the plain tuple (wp, wq, hp, hq) of its two sides' pairs, checked once,
where it is made, by ``rectangle``.

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
    so "2/4" reads as (2, 4) and any form ``Fraction`` reads, "0.5e-3" say,
    in lowest terms, and a line "w h" becomes the ``rectangle`` of its two
    pairs.  The file is read in chunks of whole lines (about 64 KiB
    each), never whole.  A plain chunk, the format ``gen`` writes, has only
    ASCII tokens digits[/digits], exactly one (1D) or two (2D) a line, one
    space apart, and "\\n" line ends, with no blank, padded or comment line;
    its integers are read at once by one regex check and one JSON parse, with
    the rule of ``parse_pair`` (a bare integer p is (p, 1)).  Every other
    chunk, and a plain one with a leading zero, an integer too long for
    ``int``, a zero denominator or a 2D side outside (0, 1], is read line
    by line, so the items and any error, and its line, are the same either
    way.

Every kind is streamed: ``items`` is a ``Stream``, read once, one block
at a time (a chunk of the file, ``_BLOCK`` drawn items, or the whole
shuffled ``tiled-known-opt`` instance), so a run holds one block, not the
instance.  The first block is read by ``generate`` itself: a missing file
or a bad first chunk fails there, and a bad later chunk fails when the
items before it are used up.  A plain 1D chunk hands its pairs on straight
from the JSON integers, zipped in place, so no list of pairs is built.

A generated instance holds at most ``_MAX_ITEMS`` (10^7) items or
``_MAX_RECTANGLES`` (3 * 10^6) rectangles; a larger count is refused before
any item is made, in a line that cuts a count of more than 40 digits short.
Files are not capped.
"""

from __future__ import annotations

import json
import random
import re
import sys
from collections import namedtuple
from fractions import Fraction
from itertools import chain, cycle, islice, repeat
from math import gcd
from time import perf_counter

from .params import named, parse_pair, parse_rational, shown

GRID = 10 ** 6

_LEVELS = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 7), Fraction(1, 43))
_JITTER = Fraction(1, GRID)
_PATTERN_1D = ((51, 100), (49, 100))
_TILES_2D = 2  # the 2D pattern is a 2 x 2 grid of squares
# the most items a generated 1D instance holds: every kind is streamed (a
# tiled one as a single block), but a 1D SH+ run keeps its bins, and one of
# 10**6 sizes peaks at about 154 MB, so 10**7 is about 1.5 GB (Harmonic(k)
# keeps O(k) and stays near 20 MB)
_MAX_ITEMS = 10 ** 7
# the most rectangles a generated 2D instance holds: 10**5 uniform rectangles
# packed in both orientations grow the peak RSS by about 81 MB (810 B each, 216
# B of them the rectangles), so 3 * 10**6 peak near 2.4 GB
_MAX_RECTANGLES = 3 * 10 ** 6

# a file is read in chunks of whole lines of about this many characters, and
# a uniform or harmonic-adversarial instance drawn in blocks of this many items
_CHUNK = 1 << 16
_BLOCK = 1 << 12


def _plain_lines(plus: str) -> dict:
    """The patterns of a plain chunk, by dims: `dims` tokens digits[/digits]
    a line, one space apart, each line ended by "\\n".  ``plus`` "+" makes
    every quantifier possessive (3.11 syntax), which accepts the same chunks
    without keeping backtracking state per line; "" keeps them greedy."""
    token = f"[0-9]+{plus}(?:/[0-9]+{plus})?{plus}"
    return {1: f"(?:{token}\n)*{plus}", 2: f"(?:{token} {token}\n)*{plus}"}


# re caches each pattern when it is first used
_PLAIN_LINES = _plain_lines("+" if sys.version_info >= (3, 11) else "")
_BARE = "(?<![0-9/])([0-9]+)(?![0-9/])"  # a token with no "/"
_COMMAS = str.maketrans("/\n ", ",,,")  # a plain chunk's separators, as JSON's


def rectangle(w: tuple, h: tuple) -> tuple:
    """The rectangle of width wp/wq and height hp/hq as the integers (wp, wq,
    hp, hq) of the pairs ``w`` and ``h``, q > 0, as written (not necessarily in
    lowest terms): equal tuples are equal rectangles, but "1/2" and "2/4" sides
    give unequal ones.  A side outside (0, 1] is refused."""
    (wp, wq), (hp, hq) = w, h
    if not (0 < wp <= wq and 0 < hp <= hq):
        raise ValueError(f"{named(wp, wq, 'rectangle')} {named(hp, hq, 'x')} "
                         f"outside (0,1]^2")
    return wp, wq, hp, hq


def Item2D(w, h) -> tuple:
    """The rectangle of the rationals ``w`` and ``h``, each read by
    ``parse_rational``, as ``rectangle`` gives it from their pairs in lowest
    terms."""
    return rectangle(parse_rational(w).as_integer_ratio(),
                     parse_rational(h).as_integer_ratio())


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
    "items",  # a Stream of (p, q) pairs (1D) or (wp, wq, hp, hq) tuples (2D)
    "known_opt",
], defaults=(None,))


class Stream:
    """Items read once, a block at a time: the first block when the stream is
    made, each later one when the items before it are used up.  ``read_s``
    sums the seconds spent making the blocks."""

    __slots__ = ("read_s", "_blocks", "_items")

    def __init__(self, blocks):
        self.read_s, self._blocks = 0.0, blocks
        first = self._next()
        # C-level iterators: no Python frame is resumed per item, and a list
        # iterator lets the first block go once it is used up, as chain lets
        # each later one go
        self._items = chain.from_iterable(chain(iter([first or ()]),
                                                iter(self._next, None)))

    def _next(self):
        """The next block, or None after the last, timed into ``read_s``."""
        t0 = perf_counter()
        block = next(self._blocks, None)
        self.read_s += perf_counter() - t0
        return block

    def __iter__(self):
        return self._items


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
                         rectangle(parse_pair(parts[0]), parse_pair(parts[1])))
        elif parts:
            what = "one size" if dims == 1 else "'w h'"
            raise ValueError(f"expected {what} per line, got "
                             f"{line.partition('#')[0].strip()!r}")


def _read_plain(text: str, dims: int):
    """The items of a chunk of plain lines, read in bulk, as ``_read_lines``
    reads them: in 1D the JSON integers zipped into pairs in place, in 2D a
    list.  None for any other chunk, and for a plain one with a token JSON
    refuses or a line ``_read_lines`` refuses: that chunk is left to
    ``_read_lines``, for its items or its error."""
    if not text.endswith("\n"):  # the file's last line
        text += "\n"
    if not re.fullmatch(_PLAIN_LINES[dims], text):
        return None
    try:  # JSON refuses a leading zero and an integer over int's digit limit
        ints = json.loads("[" + text[:-1].translate(_COMMAS) + "]")
        if len(ints) != 2 * text.count("/"):  # a token p with no "/" is p/1
            ints = json.loads("[" + re.sub(_BARE, r"\1/1", text)[:-1].translate(_COMMAS)
                              + "]")
    except ValueError:
        return None
    if 0 in ints[1::2]:  # "p/0" is parse_pair's error
        return None
    it = iter(ints)
    if dims == 1:
        return zip(it, it)
    pairs = list(zip(it, it))
    try:
        return list(map(rectangle, pairs[::2], pairs[1::2]))
    except ValueError:  # a side outside (0, 1]
        return None


def _file_blocks(path, dims: int):
    """The items of the file at ``path``, one chunk of whole lines at a time:
    ``_CHUNK`` characters and the rest of the line they end in, which is the
    chunk ``readlines(_CHUNK)`` returns, as one string."""
    with open(path, "r", encoding="utf-8") as fh:
        while text := fh.read(_CHUNK) + fh.readline():
            block = _read_plain(text, dims)
            if block is None:
                block = []
                # at "\n" alone, as readlines splits: str.splitlines would
                # also split at "\x0b", "\x1c", "\u2028" and others
                _read_lines(text.split("\n"), dims, block)
            yield block


def _blocks(items, n: int):
    """The first n of ``items``, ``_BLOCK`` at a time, each block a list."""
    items = islice(items, n)
    return iter(lambda: list(islice(items, _BLOCK)), [])


def _shuffled(rng: random.Random, tile: tuple, copies: int):
    """``copies`` copies of ``tile``, shuffled, as one block."""
    items = list(tile) * copies
    rng.shuffle(items)
    yield items


def _check_count(count: int, dims: int) -> None:
    """Refuse a generated instance of more than ``_MAX_ITEMS`` items or
    ``_MAX_RECTANGLES`` rectangles."""
    most, what = (_MAX_ITEMS, "items") if dims == 1 else (_MAX_RECTANGLES, "rectangles")
    if count > most:
        raise ValueError(f"an instance of {shown(count)} {what} exceeds the cap of {most}")


def generate(spec: InstanceSpec) -> Instance:
    if spec.kind == "file":
        dims = 1 if spec.dims == 1 else 2  # tokens per line; any other dims is 2D
        return Instance(spec=spec, items=Stream(_file_blocks(spec.path, dims)))

    rng = random.Random(spec.seed)
    if spec.kind in ("uniform", "harmonic-adversarial"):
        _check_count(spec.n, spec.dims)
        # C-level chains: a rectangle draws its width, then its height
        draws = map(_uniform_pair, repeat(rng))
        sizes = draws if spec.kind == "uniform" else cycle(
            [(lv + _JITTER).as_integer_ratio() for lv in _LEVELS])
        items = sizes if spec.dims == 1 else map(rectangle, sizes, draws)
        return Instance(spec=spec, items=Stream(_blocks(items, spec.n)))

    if spec.kind == "tiled-known-opt":
        bins = max(1, spec.n) if spec.bins is None else spec.bins
        tile = _PATTERN_1D if spec.dims == 1 else \
            (rectangle((1, _TILES_2D), (1, _TILES_2D)),) * _TILES_2D ** 2
        _check_count(bins * len(tile), spec.dims)
        return Instance(spec=spec, items=Stream(_shuffled(rng, tile, bins)),
                        known_opt=bins)

    raise ValueError(f"unknown instance kind {spec.kind!r}")
