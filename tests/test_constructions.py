"""Characteristic tuples and the fixture catalogue."""

from __future__ import annotations

import ast
import inspect
import re
from pathlib import Path

import numpy as np
import pytest

import jsrkit
from jsrkit import constructions, tuples
from jsrkit.bounds import bounds
from jsrkit.errors import ConvergenceError, InputError
from jsrkit.finiteness import sfh_evidence
from jsrkit.linalg import op_norm, rank_eps, spectral_radius
from jsrkit.norms import WeightedMaxNorm, norm_from_json_dict, verify_barabanov
from jsrkit.structure import algebra_dimension, is_irreducible
from jsrkit.constructions import (
    characteristic_truth,
    characteristic_tuple,
    example_tuple,
)
from jsrkit.tuples import MatrixTuple, product_along, to_json, from_json
from jsrkit.words import enumerate_words, rotation_equivalent


def test_two_letter_characteristic_matches_catalogue_fixture():
    t = characteristic_tuple(2, 2, (1, 2))
    ex, _ = example_tuple(1, l1=0.0, l2=0.0)
    # same pair with the slot roles swapped
    assert np.array_equal(t.matrices[0], ex.matrices[1])
    assert np.array_equal(t.matrices[1], ex.matrices[0])


def test_characteristic_122_suite():
    omega = (1, 2, 2)
    t = characteristic_tuple(2, 3, omega)
    assert t.d == 3
    for z in enumerate_words(2, 3):
        p = product_along(t, z)
        if rotation_equivalent(z, omega):
            assert rank_eps(p) == 1
            assert spectral_radius(p) == pytest.approx(1.0, abs=1e-12)
        else:
            assert not np.any(p)  # exactly zero, no tolerance
    b = bounds(t, 3)
    assert b.lower == 1.0
    assert b.upper == 1.0
    assert algebra_dimension(t) == 9
    assert is_irreducible(t).status == "Certified"
    assert rank_eps(product_along(t, omega)) == 1
    for a in t.matrices:
        assert op_norm(a) == pytest.approx(1.0, abs=1e-12)


def test_characteristic_1213_suite():
    omega = (1, 2, 1, 3)
    t = characteristic_tuple(3, 4, omega)
    assert t.d == 4
    for z in enumerate_words(3, 4):
        p = product_along(t, z)
        if rotation_equivalent(z, omega):
            assert rank_eps(p) == 1
        else:
            assert not np.any(p)
    b = bounds(t, 4)
    assert b.lower == 1.0
    assert b.upper == 1.0
    assert algebra_dimension(t) == 16
    assert is_irreducible(t).status == "Certified"


def test_unused_symbols_become_scaled_copies():
    t = characteristic_tuple(4, 2, (1, 2))
    assert t.r == 4
    assert np.array_equal(t.matrices[2], t.matrices[0] / 2.0)
    assert np.array_equal(t.matrices[3], t.matrices[1] / 3.0)
    b = bounds(t, 2)
    assert b.lower == 1.0
    assert b.upper == 1.0
    # the scaled copies never reach the bound, so the class of omega still wins
    report = sfh_evidence(t, (1, 2), WeightedMaxNorm((1.0, 1.0)), 1.0)
    assert report.passed
    assert report.margin == pytest.approx(0.5, abs=1e-12)


def test_characteristic_single_letter():
    t = characteristic_tuple(1, 1, (1,))
    assert t.matrices[0].shape == (1, 1)
    assert t.matrices[0][0, 0] == 1.0


def test_characteristic_complex_field():
    t = characteristic_tuple(2, 3, (1, 2, 2), field="complex")
    assert t.field == "complex"
    assert np.iscomplexobj(t.matrices[0])
    assert algebra_dimension(t) == 9


def test_characteristic_validation():
    with pytest.raises(InputError):
        characteristic_tuple(2, 4, (1, 2, 1, 2))  # proper power
    with pytest.raises(InputError):
        characteristic_tuple(3, 2, (1, 3))  # letters skip 2
    with pytest.raises(InputError):
        characteristic_tuple(2, 3, (1, 2))  # length mismatch
    with pytest.raises(InputError):
        characteristic_tuple(1, 2, (1, 2))  # letter above alphabet
    with pytest.raises(InputError):
        characteristic_tuple(0, 1, (1,))


def test_characteristic_self_check_failure_raises(monkeypatch):
    monkeypatch.setattr("jsrkit.constructions.linalg.rank_eps", lambda a, tol=None: 2)
    with pytest.raises(ConvergenceError):
        characteristic_tuple(2, 3, (1, 2, 2))


def test_characteristic_self_check_names_a_nonzero_off_class_product(monkeypatch):
    # the walk yields only off-class products that are not zero, so any block it yields fails
    block = (np.array([[0, 0, 1]]), np.ones(1), np.ones((1, 3, 3)))
    monkeypatch.setattr(constructions, "off_class_blocks", lambda t, omega, budget: iter([block]))
    with pytest.raises(ConvergenceError, match=r"^self-check failed: off-class P_1,1,2 != 0$"):
        characteristic_tuple(2, 3, (1, 2, 2))


def test_characteristic_vanishing_check_charges_the_rows_it_keeps(monkeypatch):
    # the off-class walk keeps at most 2 * n rows per length, so it runs at the
    # default budget of 10**7 rows, which the 2**24 words of length 24 would pass,
    # and past 62 letters, where 2**63 words would not fit one int64 index each
    counters = []
    walk = tuples._PrefixStore.walk
    monkeypatch.setattr(tuples._PrefixStore, "walk",
                        lambda store, n, budget, **kw: counters.append(budget) or walk(store, n, budget, **kw))
    for n in (24, 63):
        counters.clear()
        assert characteristic_tuple(2, n, (1,) * (n - 1) + (2,)).d == n
        (counter,) = counters
        assert 0 < counter.spent <= 2 * n ** 2, n


def _raises_value_error(node) -> bool:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "ValueError"


def test_package_has_no_assert_statements():
    # self-checks must raise explicitly so that they still run under python -O,
    # and out-of-contract input raises a JsrkitError, never a bare ValueError
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(jsrkit.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert) or isinstance(node, ast.Raise) and _raises_value_error(node)
    ]
    assert found == []


# the public parameters for which None means something other than "use the default"
_MEANINGFUL_NONE = {
    "samples", "rho_hat", "extra", "LpNorm.weights",
    "example_tuple.l1", "example_tuple.l2", "example_tuple.lam",
}


def test_public_defaults_are_bound_in_signatures():
    # every other default is a value a caller could have passed, so None has no meaning there
    found = []
    for name in jsrkit.__all__:
        obj = getattr(jsrkit, name)
        if not (inspect.isfunction(obj) or inspect.isclass(obj)):
            continue
        try:
            params = inspect.signature(obj).parameters.values()
        except (TypeError, ValueError):
            continue
        found += [
            f"{name}.{p.name}"
            for p in params
            if p.default is None and not {p.name, f"{name}.{p.name}"} & _MEANINGFUL_NONE
        ]
    assert found == []


def test_characteristic_truth_record():
    truth = characteristic_truth(2, 3, (1, 2, 2))
    assert truth["jsr"] == 1.0
    assert truth["characteristic_word"] == "1,2,2"
    assert all(v is True for v in truth["flags"].values())


def test_example_matrices_exact():
    t1, _ = example_tuple(1, l1=0.3, l2=0.5)
    assert np.array_equal(t1.matrices[0], [[0.0, 1.0], [0.3, 0.0]])
    assert np.array_equal(t1.matrices[1], [[0.0, 0.5], [1.0, 0.0]])
    t2, _ = example_tuple(2, lam=0.5)
    assert np.array_equal(t2.matrices[0], [[1.0, 0.0], [0.0, 0.5]])
    assert np.array_equal(t2.matrices[1], [[0.0, 0.5], [0.5, 0.0]])
    t3, _ = example_tuple(3, lam=0.5)
    assert np.array_equal(t3.matrices[0], [[1.0, 0.0], [0.0, -1.0]])
    t4, _ = example_tuple(4, lam=0.5)
    assert t4.r == 3
    assert np.array_equal(t4.matrices[0], [[1.0, 0.0], [0.0, 0.0]])
    assert np.array_equal(t4.matrices[1], [[0.0, 0.0], [0.0, 1.0]])
    assert np.array_equal(t4.matrices[2], [[0.0, 0.5], [0.5, 0.0]])
    t5, _ = example_tuple(5)
    assert np.array_equal(t5.matrices[0], [[0.0, 1.0], [1.0, 0.0]])
    assert np.array_equal(t5.matrices[1], [[0.5, 0.0], [0.0, 0.5]])


def test_example_flags():
    _, tr1 = example_tuple(1, l1=0.0, l2=0.0)
    assert tr1["flags"] == {
        "finiteness": True,
        "strong_finiteness": True,
        "rank_one": True,
        "unique_norm": True,
        "unbounded_agreements": True,
    }
    _, tr2 = example_tuple(2, lam=0.5)
    assert tr2["flags"]["strong_finiteness"] is False
    assert tr2["flags"]["unique_norm"] is True
    _, tr3 = example_tuple(3, lam=0.5)
    assert tr3["flags"]["rank_one"] is False
    assert tr3["flags"]["unique_norm"] is False
    assert tr3["flags"]["strong_finiteness"] is None
    _, tr4 = example_tuple(4, lam=0.5)
    assert tr4["flags"]["unbounded_agreements"] is False
    assert tr4["flags"]["strong_finiteness"] is False
    assert tr4["flags"]["rank_one"] is True
    _, tr5 = example_tuple(5)
    assert tr5["flags"]["strong_finiteness"] is True
    assert tr5["flags"]["rank_one"] is False
    assert tr5["flags"]["unique_norm"] is None


def test_example_truth_norms_actually_verify():
    cases = [
        example_tuple(1, l1=0.3, l2=0.5),
        example_tuple(2, lam=0.5),
        example_tuple(3, lam=0.5),
        example_tuple(4, lam=0.5),
        example_tuple(5),
    ]
    for t, truth in cases:
        assert truth["jsr"] == 1.0
        assert truth["barabanov_norms"]
        for payload in truth["barabanov_norms"]:
            norm = norm_from_json_dict(payload)
            report = verify_barabanov(t, norm, 1.0, tol=1e-9)
            assert report.passed, (truth, payload)


def test_example_truth_round_trips_through_tuple_json():
    t, truth = example_tuple(1, l1=0.0, l2=0.0)
    text = to_json(t, extra={"truth": truth})
    back = from_json(text)
    assert back == t


def test_example_param_validation():
    with pytest.raises(InputError):
        example_tuple(0)
    with pytest.raises(InputError):
        example_tuple(6)
    with pytest.raises(InputError):
        example_tuple(1, l1=0.3)  # l2 missing
    with pytest.raises(InputError):
        example_tuple(1, l1=1.0, l2=0.0)  # modulus not below 1
    with pytest.raises(InputError):
        example_tuple(1, l1=0.0, l2=0.0, lam=0.5)
    with pytest.raises(InputError):
        example_tuple(2, lam=0.0)  # zero excluded here
    with pytest.raises(InputError):
        example_tuple(2, lam=None)
    with pytest.raises(InputError):
        example_tuple(2, lam=0.5j)  # complex parameter on a real tuple
    with pytest.raises(InputError):
        example_tuple(5, lam=0.5)
    with pytest.raises(InputError):
        example_tuple(3, lam=0.5, field="rational")


def test_example_ids_must_be_integers():
    for bad in (True, False, 1.0, 3.0, "1", np.array([3]), None):
        with pytest.raises(InputError, match=re.escape(f"example id must be 1..5, got {bad!r}")):
            example_tuple(bad, lam=0.5)
    t, _ = example_tuple(np.int64(5))
    assert t == example_tuple(5)[0]


def test_example_complex_parameters():
    t, truth = example_tuple(2, lam=0.3 + 0.4j, field="complex")
    assert t.field == "complex"
    assert t.matrices[0][1, 1] == 0.3 + 0.4j
    norm = norm_from_json_dict(truth["barabanov_norms"][0])
    assert norm.weights[1] == pytest.approx(0.5)
    t1, _ = example_tuple(1, l1=0.2j, l2=-0.1, field="complex")
    assert t1.matrices[0][1, 0] == 0.2j
