"""Generators for reference tuples with known joint spectral behaviour.

Two families live here.  characteristic_tuple builds, for any primitive
word omega, a tuple whose only surviving products of length |omega| are
the cyclic rotations of P_omega; every competing product over the used
alphabet is exactly zero.  example_tuple reproduces a small catalogue of
2x2 and 2x2x2 fixtures whose joint spectral radius, extremal norms, and
structural flags are known in closed form.  All constructors are pure and
return exact 0/1/lambda entries.

Truth records are plain dicts ready for JSON embedding, all built by _truth:

    {"jsr": 1.0, "characteristic_word": "1,2" | None,
     "barabanov_norms": [<norm dicts>],
     "flags": {"finiteness": ..., "strong_finiteness": ..., "rank_one": ...,
               "unique_norm": ..., "unbounded_agreements": ...}}

Flag values are True/False when known and None when not asserted.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from .errors import ConvergenceError, InputError
from .tuples import MatrixTuple, _check_field
from .words import Word, format_word, is_primitive, validate_word


def _characteristic_word(r: int, n: int, omega: Word) -> Word:
    """omega as a tuple, if characteristic_tuple(r, n, omega) takes it; InputError if not.

    r >= 1, omega a word over 1..r of length n, primitive, whose letters
    form an initial segment 1..r' of the alphabet.
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
    return omega


def characteristic_tuple(r: int, n: int, omega: Word, *, field: str = "real") -> MatrixTuple:
    """Tuple of r partial permutations on K^n whose characteristic word is omega.

    Slot omega_i sends e_i to e_{i+1} (indices cyclic); all other actions are
    zero, so off-class products over the used alphabet vanish identically.
    omega must be primitive and use an initial segment 1..r' of the alphabet;
    symbols above r' become scaled copies A_{r'+j} = A_{1+((j-1) mod r')}/(j+1)
    so slots stay pairwise distinct with norms below one.

    The vanishing is a lemma over the base slots' exact 0/1 entries:
    P_w e_i != 0 exactly when w reads omega cyclically from position i, so
    a product of length n is nonzero exactly when w is a rotation of omega.
    Each entry of a product of 0/1 partial permutations is a sum with at
    most one nonzero term, 1 * 1, so float products equal the exact ones
    bitwise.  The same lemma gives the rest: the product along the
    rotation of omega that starts at position j is the 0/1 matrix with a
    single 1 at (j, j), so rho(P_omega) = rank(P_omega) = 1, and each base
    slot, a partial permutation, has norm 1.  Checked on every call, in
    O(r n^2): each base slot a <= r' equals its pattern exactly (1 at
    (i+1 mod n, i) where omega_i = a, 0 elsewhere), which the lemma needs,
    and the slots, scaled copies included, are pairwise distinct.
    """
    omega = _characteristic_word(r, n, omega)
    r_used = max(omega)

    mats = [np.zeros((n, n)) for _ in range(r_used)]
    for pos, letter in enumerate(omega):
        mats[letter - 1][(pos + 1) % n, pos] = 1.0
    for j in range(1, r - r_used + 1):
        src = 1 + (j - 1) % r_used
        mats.append(mats[src - 1] / (j + 1))
    t = MatrixTuple(field, tuple(mats))

    letters, cols = np.array(omega), np.arange(n)
    for a, slot in enumerate(t.matrices[:r_used], 1):
        at = cols[letters == a]
        pattern = np.zeros((n, n))
        pattern[(at + 1) % n, at] = 1.0
        if not np.array_equal(slot, pattern):
            raise ConvergenceError(f"self-check failed: slot {a} is not the 0/1 map of omega's letter {a}")
    if any(np.array_equal(a, b) for a, b in combinations(t.matrices, 2)):
        raise ConvergenceError("self-check failed: two slots coincide")
    return t


_FLAGS = ("finiteness", "strong_finiteness", "rank_one", "unique_norm", "unbounded_agreements")


def _truth(word: str | None, norm_dicts, *flags) -> dict:
    """The truth record of a set with jsr 1: word, norm dicts, then one value per _FLAGS name."""
    return {
        "jsr": 1.0,
        "characteristic_word": word,
        "barabanov_norms": list(norm_dicts),
        "flags": dict(zip(_FLAGS, flags, strict=True)),
    }


def characteristic_truth(r: int, n: int, omega: Word) -> dict:
    """Known facts about characteristic_tuple(r, n, omega), for the omega it takes."""
    omega = _characteristic_word(r, n, omega)
    return _truth(format_word(omega), [], True, True, True, True, True)


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


# The parameters each catalogue example takes; only example 1's may be zero.
_PARAMS = {1: ("l1", "l2"), 2: ("lam",), 3: ("lam",), 4: ("lam",), 5: ()}


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

    The id must be an int (a numpy integer will do; a bool, a float or a
    string will not).  Parameters are per id: l1 and l2 for id 1, lam for
    ids 2-4, none for 5.
    Complex parameters require field="complex".
    """
    _check_field(field)
    is_int = isinstance(example_id, (int, np.integer)) and not isinstance(example_id, bool)
    takes = _PARAMS.get(int(example_id)) if is_int else None
    if takes is None:
        raise InputError(f"example id must be 1..5, got {example_id!r}")
    given = {"l1": l1, "l2": l2, "lam": lam}
    for name, value in given.items():
        if value is not None and name not in takes:
            raise InputError(f"example {example_id} does not take parameter {name}")
    l1, l2, lam = (
        _coerce_param(name, value, field, allow_zero=example_id == 1) if name in takes else None
        for name, value in given.items()
    )
    # only the catalogue's truth records name norms, so the norm layer loads here
    from .norms import LpNorm, WeightedMaxNorm, norm_to_json_dict

    if example_id == 1:
        mats = ([[0, 1], [l1, 0]], [[0, l2], [1, 0]])
        word, norms, flags = "1,2", [WeightedMaxNorm((1.0, 1.0))], (True, True, True, True, True)
    elif example_id == 2:
        mats = ([[1, 0], [0, lam]], [[0, lam], [lam, 0]])
        word, norms, flags = None, [WeightedMaxNorm((1.0, abs(lam)))], (True, False, True, True, True)
    elif example_id == 3:
        mats = ([[1, 0], [0, -1]], [[0, lam], [lam, 0]])
        norms = [LpNorm(1.0), LpNorm(2.0), WeightedMaxNorm((1.0, 1.0))]
        word, flags = None, (True, None, False, False, True)
    elif example_id == 4:
        mats = ([[1, 0], [0, 0]], [[0, 0], [0, 1]], [[0, lam], [lam, 0]])
        norms = [WeightedMaxNorm((1.0, xi)) for xi in (abs(lam), 1.0, 1.0 / abs(lam))]
        word, flags = None, (True, False, True, False, False)
    else:
        mats = ([[0.0, 1.0], [1.0, 0.0]], 0.5 * np.eye(2))
        word, norms, flags = "1", [LpNorm(2.0)], (True, True, False, None, True)
    truth = _truth(word, map(norm_to_json_dict, norms), *flags)
    return MatrixTuple(field, tuple(np.array(m) for m in mats)), truth
