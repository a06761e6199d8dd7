"""Seeded input writers for the benchmark workloads.

Every file is written with exact rationals (``p/q`` or an integer), so the
program reads back exactly the instance that was drawn.  The writers never
import the package under test: the inputs depend on the seed alone.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

GRID = 10 ** 6

# Breakpoints t_2..t_51 of the built-in SH+ table and the Harmonic(38)
# breakpoints 1/2..1/38, written out here so that a wrong table in the
# package cannot move the inputs along with it.
_SHPLUS_BREAKS = (
    ["0.706", "0.657", "0.647", "0.625", "0.6", "0.58", "0.5", "0.42", "0.4",
     "0.375", "0.353", "0.343", "1/3", "0.294", "1/4", "1/5", "1/6", "0.147",
     "1/7"]
    + [f"1/{i - 13}" for i in range(21, 50)]
    + ["1/37", "1/38"])
BREAKPOINTS = sorted({Fraction(x) for x in _SHPLUS_BREAKS}
                     | {Fraction(1, i) for i in range(2, 39)})

# tuned mixing weights of the certificate, rows i = 1..7, columns j = 1..7
TUNED_LAMBDA = [
    ["0.5", "0.5", "0.54", "0.55", "0.565", "0.565", "0.6"],
    ["0.5", "0.5", "0.53", "0.55", "0.565", "0.565", "0.6"],
    ["0.5", "0.5", "0.53", "0.55", "0.565", "0.565", "0.6"],
    ["0.5", "0.5", "0.535", "0.55", "0.565", "0.565", "0.6"],
    ["0.5", "0.5", "0.535", "0.55", "0.565", "0.565", "0.6"],
    ["0.5", "0.5", "0.53", "0.55", "0.565", "0.565", "0.6"],
    ["0.5", "0.515", "0.535", "0.555", "0.565", "0.57", "0.6"],
]


def _grid(rng: random.Random, hi: int = GRID) -> Fraction:
    return Fraction(rng.randint(1, hi), GRID)


def mixed_sizes(seed: int, n: int) -> list:
    """1D sizes: 50 % uniform on (0,1], 40 % uniform on (0,1/7], 10 % on or
    10^-6 above a breakpoint, all on the 10^-6 grid or exactly rational."""
    rng = random.Random(f"pack1d-mixed/{seed}")
    out = []
    for _ in range(n):
        u = rng.random()
        if u < 0.5:
            out.append(_grid(rng))
        elif u < 0.9:
            out.append(_grid(rng, GRID // 7))
        else:
            t = rng.choice(BREAKPOINTS)
            out.append(t if rng.random() < 0.5 else t + Fraction(1, GRID))
    return out


def thin_rects(seed: int, n: int) -> list:
    """2D rectangles with both sides uniform on the 10^-6 grid, except that one
    in ten has one side log-uniform on [10^-6, 1/38], rounded to the grid."""
    rng = random.Random(f"slice2d-thin/{seed}")
    lo, hi = math.log(1e-6), math.log(1 / 38)
    out = []
    for idx in range(n):
        w, h = _grid(rng), _grid(rng)
        if idx % 10 == 9:
            thin = Fraction(max(1, round(math.exp(rng.uniform(lo, hi)) * GRID)),
                            GRID)
            if rng.random() < 0.5:
                w = thin
            else:
                h = thin
        out.append((w, h))
    return out


def perturbed_lambda(seed: int) -> list:
    """The tuned table with every entry moved by a seeded multiple of 1/1000
    in [-0.03, 0.03]."""
    rng = random.Random(f"certify-lambda/{seed}")
    return [[str(Fraction(lam) + Fraction(rng.randint(-30, 30), 1000))
             for lam in row] for row in TUNED_LAMBDA]


def write_sizes(path, sizes) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{s}\n" for s in sizes)


def write_rects(path, rects) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"{w} {h}\n" for w, h in rects)
