"""The paper's two theorems, seen on seeded perturbations of example 1 and on the catalogue.

Morris (arXiv:0909.2800) gives a condition on a finite irreducible set under
which finiteness holds for every nearby set too (stability), and conditions
under which its Barabanov norm is unique up to scale.  Example 1 (0.3, 0.5)
is irreducible, has the rank-one property and the single spectrum-maximizing
class of (1,2).  So on every small enough perturbation the library should see
the same structure, one Barabanov norm whatever the start, and the class of
(1,2) pass the offender scan under it, at |omega| = 2 and at |omega| = 40.
On catalogue examples 1 to 4, starts from five norms agree on one Barabanov
norm exactly where the ground-truth record says it is unique.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from jsrkit import (
    LpNorm,
    WeightedMaxNorm,
    approx_barabanov,
    example_tuple,
    is_irreducible,
    norm_distance,
    rank_one_property,
    sfh_evidence,
    spectral_maximal_candidates,
    spectral_radius,
)
from jsrkit.tuples import MatrixTuple, tuple_distance

EXAMPLE_1, _ = example_tuple(1, l1=0.3, l2=0.5)
STARTS = [WeightedMaxNorm(w) for w in ((1.0, 1.0), (1.0, 3.0), (3.0, 1.0))]


def _perturbed(eps: float, seed: int) -> MatrixTuple:
    """Example 1 with eps * U(-1, 1) / 2 added to every slot entry."""
    noise = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(2, 2, 2)) * eps / 2
    return MatrixTuple("real", tuple(a + e for a, e in zip(EXAMPLE_1.matrices, noise)))


@pytest.mark.parametrize("eps, seed", itertools.product((1e-3, 1e-2, 5e-2), range(4)))
def test_structure_and_one_barabanov_norm_persist_near_example_1(eps, seed):
    t = _perturbed(eps, seed)
    assert tuple_distance(t, EXAMPLE_1) <= eps
    assert is_irreducible(t).status == "Certified"
    assert rank_one_property(t, 8).status == "Certified"
    candidates = [w for w, _ in spectral_maximal_candidates(t, 8)]
    assert candidates and all(w == (1, 2) * (len(w) // 2) for w in candidates)
    rho_hat = spectral_radius(t.matrices[1] @ t.matrices[0]) ** 0.5
    runs = [approx_barabanov(t, rho_hat, init=start) for start in STARTS]
    assert all(run.converged for run in runs)
    assert max(norm_distance(a.norm, b.norm) for a, b in itertools.combinations(runs, 2)) <= 1e-5
    # the scan at |omega| = 40 asks about some 2000 of its 2**41 - 2 rows
    assert all(sfh_evidence(t, w, runs[0].norm, rho_hat).passed for w in ((1, 2), (1, 2) * 20))


@pytest.mark.parametrize("example_id, params", [
    (1, {"l1": 0.3, "l2": 0.5}), (2, {"lam": 0.5}), (3, {"lam": 0.5}), (4, {"lam": 0.5}),
])
def test_starts_agree_on_the_barabanov_norm_where_it_is_unique(example_id, params):
    t, truth = example_tuple(example_id, **params)
    starts = [LpNorm(2.0), LpNorm(1.0)] + STARTS
    runs = [approx_barabanov(t, 1.0, init=start) for start in starts]
    assert all(run.converged for run in runs)
    spread = max(norm_distance(a.norm, b.norm) for a, b in itertools.combinations(runs, 2))
    # unique: 5.5e-7 and 4.1e-7 apart; a family of norms: 1.39 (log 4) for examples 3 and 4
    if truth["flags"]["unique_norm"]:
        assert spread <= 1e-5
    else:
        assert truth["flags"]["unique_norm"] is False and spread >= 0.5
