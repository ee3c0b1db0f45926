"""Joint-spectral-radius analysis of finite matrix tuples.

Certified bounds via product enumeration with pruning, irreducibility and
rank-one certificates, Barabanov norm approximation and verification,
offender scans for spectrum-maximal product classes, and generators for
reference tuples with known behaviour.
"""

from importlib import import_module as _import_module
from types import ModuleType as _ModuleType

from .bounds import (
    JsrBounds,
    bounds,
    finiteness_verified_at_depth,
    spectral_maximal_candidates,
)
from .config import DEFAULTS
from .errors import BudgetError, ConvergenceError, InputError, JsrkitError
from .linalg import (
    exterior_square,
    op_norm,
    rank_eps,
    spectral_radius,
)
from .tuples import (
    MatrixTuple,
    exterior_square_tuple,
    from_json,
    product_along,
    scale,
    to_json,
    tuple_distance,
)
from .words import (
    Word,
    canonical_rotation,
    enumerate_necklaces,
    enumerate_words,
    format_word,
    is_primitive,
    parse_word,
    power,
    rotation_equivalent,
)

# The norm, offender-scan, structure and catalogue layers load on first
# access to one of their names (PEP 562), so the enumeration core starts
# alone.  bounds stays eager: importing the submodule jsrkit.bounds sets the
# package attribute to the module, which __getattr__ could never replace.
_LAZY = {
    name: module
    for module, names in {
        "constructions": "characteristic_truth characteristic_tuple example_tuple",
        "finiteness": "SFH_CAVEAT SfhReport characteristic_word_search sfh_evidence",
        "norms": "ApproxResult LpNorm MeshNorm VerificationReport WeightedMaxNorm "
        "approx_barabanov circle_mesh eval_norm matrix_norm norm_distance "
        "norm_from_json_dict norm_to_json_dict sphere_samples theta "
        "verify_barabanov verify_extremal",
        "structure": "PropertyVerdict algebra_dimension is_irreducible rank_one_property",
    }.items()
    for name in names.split()
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_import_module(f".{_LAZY[name]}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(_LAZY))


__version__ = "0.1.0"

# The public names: those the imports above bind (the submodules they load
# become attributes too, but are not names to export), the lazy names, and
# the version.
__all__ = sorted(
    [name for name, value in globals().items()
     if not name.startswith("_") and not isinstance(value, _ModuleType)]
    + list(_LAZY)
) + ["__version__"]
