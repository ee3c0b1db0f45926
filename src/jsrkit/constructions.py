"""Generators for reference tuples with known joint spectral behaviour.

Two families live here.  characteristic_tuple builds, for any primitive
word omega, a tuple whose only surviving products of length |omega| are
the cyclic rotations of P_omega; every competing product over the used
alphabet is exactly zero.  example_tuple reproduces a small catalogue of
2x2 and 2x2x2 fixtures whose joint spectral radius, extremal norms, and
structural flags are known in closed form.  All constructors are pure and
return exact 0/1/lambda entries.

Truth records are plain dicts ready for JSON embedding:

    {"jsr": 1.0, "characteristic_word": "1,2" | None,
     "barabanov_norms": [<norm dicts>], "flags": {...}}

Flag values are True/False when known and None when not asserted.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from . import linalg
from .config import DEFAULTS, pick
from .errors import ConvergenceError, InputError
from .norms import LpNorm, WeightedMaxNorm, norm_to_json_dict
from .tuples import MatrixTuple, product_along, product_blocks
from .words import (
    Word,
    format_word,
    is_primitive,
    rotation_class,
    validate_word,
    word_at,
    word_index,
)


def characteristic_tuple(
    r: int, n: int, omega: Word, *, field: str = "real", budget: int | None = None
) -> MatrixTuple:
    """Tuple of r partial permutations on K^n whose characteristic word is omega.

    Slot omega_i sends e_i to e_{i+1} (indices cyclic); all other actions are
    zero, so off-class products over the used alphabet vanish identically.
    omega must be primitive and use an initial segment 1..r' of the alphabet;
    symbols above r' become scaled copies A_{r'+j} = A_{1+((j-1) mod r')}/(j+1)
    so slots stay pairwise distinct with norms below one.

    Verified on every call: rho(P_omega) = 1, rank(P_omega) = 1, op norms of
    the base slots equal 1, and (while r'**n stays within budget) the exact
    vanishing of every off-class base product.
    """
    if r < 1:
        raise InputError(f"alphabet size must be >= 1, got {r}")
    omega = validate_word(omega, r)
    if len(omega) != n:
        raise InputError(f"omega has length {len(omega)}, expected n = {n}")
    if not is_primitive(omega):
        raise InputError(f"omega {omega} is a proper power, need a primitive word")
    used = sorted(set(omega))
    r_used = len(used)
    if used != list(range(1, r_used + 1)):
        raise InputError(
            f"omega's letters {used} must form an initial segment 1..{r_used}"
        )

    mats = [np.zeros((n, n)) for _ in range(r_used)]
    for pos, letter in enumerate(omega):
        mats[letter - 1][(pos + 1) % n, pos] = 1.0
    for j in range(1, r - r_used + 1):
        src = 1 + (j - 1) % r_used
        mats.append(mats[src - 1] / (j + 1))
    t = MatrixTuple(field, tuple(mats))

    p = product_along(t, omega)
    rho, rank = linalg.spectral_radius(p), linalg.rank_eps(p)
    if not abs(rho - 1.0) < 1e-12:
        raise ConvergenceError(f"self-check failed: rho(P_omega) = {rho!r}, expected 1")
    if rank != 1:
        raise ConvergenceError(f"self-check failed: rank(P_omega) = {rank}, expected 1")
    if not all(abs(linalg.op_norm(a) - 1.0) < 1e-12 for a in t.matrices[:r_used]):
        raise ConvergenceError("self-check failed: a slot of omega does not have norm 1")
    if any(np.array_equal(a, b) for a, b in combinations(t.matrices, 2)):
        raise ConvergenceError("self-check failed: two slots coincide")
    budget = pick(budget, DEFAULTS.word_budget)
    if r_used**n <= budget:
        omega_codes = [word_index(z, r_used) for z in rotation_class(omega)]
        base = MatrixTuple(field, t.matrices[:r_used])
        for codes, stack in product_blocks(base, n, budget=budget):
            other = ~np.isin(codes, omega_codes)
            live = np.flatnonzero(np.any(stack[other], axis=(1, 2)))
            if live.size:
                z = word_at(codes[other][live[0]], r_used, n)
                raise ConvergenceError(f"self-check failed: off-class P_{format_word(z)} != 0")
    return t


def characteristic_truth(r: int, n: int, omega: Word) -> dict:
    """Known facts about characteristic_tuple(r, n, omega)."""
    omega = validate_word(omega, r)
    return {
        "jsr": 1.0,
        "characteristic_word": format_word(omega),
        "barabanov_norms": [],
        "flags": {
            "finiteness": True,
            "strong_finiteness": True,
            "rank_one": True,
            "unique_norm": True,
            "unbounded_agreements": True,
        },
    }


def _coerce_param(name: str, value, field: str, *, allow_zero: bool):
    if value is None:
        raise InputError(f"parameter {name} is required for this example")
    try:
        z = complex(value)
    except (TypeError, ValueError):
        raise InputError(f"parameter {name} must be a scalar, got {value!r}") from None
    if field == "real":
        if z.imag != 0.0:
            raise InputError(f"parameter {name} must be real for a real tuple")
        scalar = z.real
    else:
        scalar = z
    mag = abs(scalar)
    if not allow_zero and mag == 0.0:
        raise InputError(f"parameter {name} must be nonzero")
    if not mag < 1.0:
        raise InputError(f"parameter {name} needs modulus below 1, got {mag}")
    return scalar


def _reject_params(example_id: int, **params):
    for name, value in params.items():
        if value is not None:
            raise InputError(f"example {example_id} does not take parameter {name}")


def _flags(finiteness, strong_finiteness, rank_one, unique_norm, unbounded_agreements):
    return {
        "finiteness": finiteness,
        "strong_finiteness": strong_finiteness,
        "rank_one": rank_one,
        "unique_norm": unique_norm,
        "unbounded_agreements": unbounded_agreements,
    }


def example_tuple(
    example_id: int,
    *,
    field: str = "real",
    l1=None,
    l2=None,
    lam=None,
) -> tuple[MatrixTuple, dict]:
    """Catalogue fixture by id (1..5) plus its ground-truth record.

    1: antidiagonal pair with entries (1, l1) and (l2, 1), 0 <= |l1|, |l2| < 1.
       Strong finiteness with word (1,2); unique max-norm.
    2: diag(1, lam) with a lam-swap, 0 < |lam| < 1.  Finiteness holds but no
       single word dominates: arbitrarily long competitors reach the bound.
    3: diag(1, -1) with a lam-swap.  Every ell_p norm is extremal; the
       semigroup closure contains the identity, so no rank-one collapse.
    4: the two coordinate projectors plus a lam-swap.  A one-parameter family
       of weighted max norms is extremal.
    5: coordinate swap plus half the identity.  Strong finiteness with
       word (1) at margin 1/2.

    Parameters are per id: l1 and l2 for id 1, lam for ids 2-4, none for 5.
    Complex parameters require field="complex".
    """
    if field not in ("real", "complex"):
        raise InputError(f"field must be 'real' or 'complex', got {field!r}")
    if example_id == 1:
        _reject_params(example_id, lam=lam)
        a = _coerce_param("l1", l1, field, allow_zero=True)
        b = _coerce_param("l2", l2, field, allow_zero=True)
        t = MatrixTuple(field, (np.array([[0, 1], [a, 0]]), np.array([[0, b], [1, 0]])))
        truth = {
            "jsr": 1.0,
            "characteristic_word": "1,2",
            "barabanov_norms": [norm_to_json_dict(WeightedMaxNorm((1.0, 1.0)))],
            "flags": _flags(True, True, True, True, True),
        }
    elif example_id == 2:
        _reject_params(example_id, l1=l1, l2=l2)
        a = _coerce_param("lam", lam, field, allow_zero=False)
        t = MatrixTuple(field, (np.array([[1, 0], [0, a]]), np.array([[0, a], [a, 0]])))
        truth = {
            "jsr": 1.0,
            "characteristic_word": None,
            "barabanov_norms": [norm_to_json_dict(WeightedMaxNorm((1.0, abs(a))))],
            "flags": _flags(True, False, True, True, True),
        }
    elif example_id == 3:
        _reject_params(example_id, l1=l1, l2=l2)
        a = _coerce_param("lam", lam, field, allow_zero=False)
        t = MatrixTuple(
            field, (np.array([[1, 0], [0, -1]]), np.array([[0, a], [a, 0]]))
        )
        norms = [LpNorm(1.0), LpNorm(2.0), WeightedMaxNorm((1.0, 1.0))]
        truth = {
            "jsr": 1.0,
            "characteristic_word": None,
            "barabanov_norms": [norm_to_json_dict(n) for n in norms],
            "flags": _flags(True, None, False, False, True),
        }
    elif example_id == 4:
        _reject_params(example_id, l1=l1, l2=l2)
        a = _coerce_param("lam", lam, field, allow_zero=False)
        t = MatrixTuple(
            field,
            (
                np.array([[1, 0], [0, 0]]),
                np.array([[0, 0], [0, 1]]),
                np.array([[0, a], [a, 0]]),
            ),
        )
        norms = [
            WeightedMaxNorm((1.0, xi)) for xi in (abs(a), 1.0, 1.0 / abs(a))
        ]
        truth = {
            "jsr": 1.0,
            "characteristic_word": None,
            "barabanov_norms": [norm_to_json_dict(n) for n in norms],
            "flags": _flags(True, False, True, False, False),
        }
    elif example_id == 5:
        _reject_params(example_id, l1=l1, l2=l2, lam=lam)
        t = MatrixTuple(
            field, (np.array([[0.0, 1.0], [1.0, 0.0]]), 0.5 * np.eye(2))
        )
        truth = {
            "jsr": 1.0,
            "characteristic_word": "1",
            "barabanov_norms": [norm_to_json_dict(LpNorm(2.0))],
            "flags": _flags(True, True, False, None, True),
        }
    else:
        raise InputError(f"example id must be 1..5, got {example_id}")
    return t, truth
