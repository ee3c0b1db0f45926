"""One tolerance rule, applied where the library takes each value."""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np
import pytest

import jsrkit
from jsrkit.bounds import bounds, finiteness_verified_at_depth
from jsrkit.config import Defaults
from jsrkit.constructions import example_tuple
from jsrkit.errors import InputError
from jsrkit.finiteness import sfh_evidence
from jsrkit.linalg import rank_eps
from jsrkit.norms import LpNorm, WeightedMaxNorm, approx_barabanov, circle_mesh, verify_barabanov
from jsrkit.structure import is_irreducible
from jsrkit.tuples import MatrixTuple


def test_library_rejects_the_tolerances_the_cli_rejects():
    shift = MatrixTuple("real", (np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0, 0.0], [1.0, 0.0]])))
    ex1, _ = example_tuple(1, l1=0.3, l2=0.5)
    maxnorm = WeightedMaxNorm((1.0, 1.0))
    # at the defaults each call below reaches the other verdict
    assert not verify_barabanov(shift, LpNorm(3.0), 1.0, samples=circle_mesh(720)).passed
    assert not approx_barabanov(ex1, 1.0, max_iter=1).converged
    assert [w for w, _ in sfh_evidence(ex1, (1,), maxnorm, 1.0).offenders] == [(2,)]
    calls = {
        "tol must be finite": lambda: verify_barabanov(
            shift, LpNorm(3.0), 1.0, samples=circle_mesh(720), tol=np.inf
        ),
        "step_tol must be finite": lambda: approx_barabanov(ex1, 1.0, step_tol=np.inf),
        "offender_tol must be positive": lambda: sfh_evidence(
            ex1, (1,), maxnorm, 1.0, offender_tol=np.nan
        ),
        r"offender_tol must be in \(0, 1\), got 1.0": lambda: sfh_evidence(
            ex1, (1,), maxnorm, 1.0, offender_tol=1.0
        ),
        "close_tol must be >= 0": lambda: finiteness_verified_at_depth(bounds(shift, 2), np.nan),
        "drop_tol must be finite": lambda: is_irreducible(ex1, drop_tol=np.inf),
        # a public tolerance with no CLI flag follows the same rule
        "tol must be >= 0": lambda: rank_eps(np.eye(2), np.nan),
    }
    for message, call in calls.items():
        with pytest.raises(InputError, match=message):
            call()


def test_every_default_is_read_outside_config():
    # a Defaults field that no module reads is a knob that turns nothing
    modules = [path for path in Path(jsrkit.__file__).parent.glob("*.py") if path.name != "config.py"]
    text = "\n".join(path.read_text(encoding="utf-8") for path in modules)
    names = list(Defaults._fields)
    assert len(names) >= 10
    assert [name for name in names if not re.search(rf"\bDEFAULTS\.{name}\b", text)] == []
