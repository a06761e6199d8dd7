"""Harmonic-class online bin packing and exact ratio certification.

The package bundles:

  * :mod:`harmonicpack.params` -- exact-rational parameter tables for
    Super-Harmonic packers (breakpoints, red fractions, capacities,
    reserved spaces) with validation and JSON round-tripping;
  * :mod:`harmonicpack.harmonic` -- the classic Harmonic(k) 1D packer and
    its weighting function;
  * :mod:`harmonicpack.superharmonic` -- the Super-Harmonic 1D packer with
    red/blue colouring, group bookkeeping, and end-state classification;
  * :mod:`harmonicpack.weighting` -- the case weights and the height weight
    on one integer denominator, and the cost-bound checker;
  * :mod:`harmonicpack.pack2d` -- the 2D slice packers (width classes,
    per-class height stacking, shared 1D run) with exact geometric
    validation and the combined per-rectangle weight;
  * :mod:`harmonicpack.boundcert` -- exact single-bin pattern maximization
    (branch and bound plus an enumeration oracle), cut validation, and the
    per-pair certificate that pins the 2D asymptotic ratio below 2.5545;
  * :mod:`harmonicpack.generators` / :mod:`harmonicpack.cli` -- seeded
    instance generation and the command-line harness.

All arithmetic on sizes, weights, and bounds is exact (integers, ``fractions``).

The names below are imported from their module on first access, so
importing one submodule (``harmonicpack.params``, say) loads no other.
"""

import importlib

__version__ = "0.1.0"

# exported name -> the module that defines it
_EXPORTS = {
    "HarmonicPacker": "harmonic", "harmonic_type": "harmonic", "w_h": "harmonic",
    "ParamTable": "params", "builtin_shplus": "params", "validate": "params",
    "ShState": "superharmonic",
    "WeightFunctionSet": "weighting", "bound_check": "weighting",
    "Item2D": "generators", "TensorRun": "pack2d", "tensor_cost": "pack2d",
    "validate_geometry": "pack2d", "w2d": "pack2d",
    "PatternModel": "boundcert", "PiecewiseFn": "boundcert",
    "brute_force_max": "boundcert", "pattern_max": "boundcert",
    "ratio_certificate": "boundcert", "validate_cut": "boundcert",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
