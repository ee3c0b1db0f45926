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
from jsrkit.linalg import rank_eps, spectral_radius
from jsrkit.norms import WeightedMaxNorm, norm_from_json_dict, verify_barabanov
from jsrkit.structure import algebra_dimension, is_irreducible
from jsrkit.constructions import (
    characteristic_truth,
    characteristic_tuple,
    example_tuple,
)
from jsrkit.tuples import MatrixTuple, to_json, from_json
from jsrkit.words import enumerate_words, is_primitive, rotation_class


def test_two_letter_characteristic_matches_catalogue_fixture():
    t = characteristic_tuple(2, 2, (1, 2))
    ex, _ = example_tuple(1, l1=0.0, l2=0.0)
    # same pair with the slot roles swapped
    assert np.array_equal(t.matrices[0], ex.matrices[1])
    assert np.array_equal(t.matrices[1], ex.matrices[0])


def _characteristic_words(n):
    """(r', omega) for every primitive word omega of length n whose letters form 1..r', r' <= 3."""
    return [(max(w), w) for w in enumerate_words(3, n)
            if set(w) == set(range(1, max(w) + 1)) and is_primitive(w)]


def _products_of_length(t, n):
    """The r^n products P_w of length n as one stack, w in lexicographic order."""
    slots = stack = np.stack(t.matrices)
    for _ in range(n - 1):  # P_{wa} = A_a P_w, row w * r + a
        stack = (slots[None] @ stack[:, None]).reshape(-1, t.d, t.d)
    return stack


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("n", range(1, 7))
def test_characteristic_products_of_length_n_vanish_off_the_class(n, field):
    # the construction's lemma by brute force: over the base slots, every
    # product of length n outside omega's rotation class is exactly zero, no
    # tolerance, and every rotation's product has rank 1 and rho 1; (1, 2, 2)
    # and (1, 2, 1, 3) are among the Lyndon words, whose tuples are also
    # irreducible with jsr 1
    listings = {r: list(enumerate_words(r, n)) for r in (1, 2, 3)}
    for r, omega in _characteristic_words(n):
        t = characteristic_tuple(r, n, omega, field=field)
        assert t.d == n and t.field == field
        rotations = set(rotation_class(omega))
        in_class = np.array([w in rotations for w in listings[r]])
        products = _products_of_length(t, n)
        assert not np.any(products[~in_class]), omega
        for p in products[in_class]:
            assert rank_eps(p) == 1, omega
            assert spectral_radius(p) == pytest.approx(1.0, abs=1e-12)
        if omega == min(rotations):  # rotations of omega give permutation-similar tuples
            assert algebra_dimension(t) == n * n
            assert is_irreducible(t).status == "Certified"
            b = bounds(t, n)
            assert (b.lower, b.upper) == (1.0, 1.0), omega


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
    # the truth record refuses every omega the construction refuses, with the same reason
    for args, reason in (
        ((2, 4, (1, 2, 1, 2)), "proper power"),
        ((3, 2, (1, 3)), "initial segment"),
        ((2, 9, (1, 2)), "expected n = 9"),
        ((2, 3, (1, 2)), "expected n = 3"),
        ((1, 2, (1, 2)), "above alphabet size 1"),
        ((0, 1, (1,)), "alphabet size"),
    ):
        for build in (characteristic_tuple, characteristic_truth):
            with pytest.raises(InputError, match=reason):
                build(*args)


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("r, omega", [
    (2, (1,) * 23 + (2,)),
    (3, (1, 2, 3, 3, 1, 2, 2, 3, 1, 1, 3, 2, 1, 2, 3, 1, 3, 3, 2, 1, 2, 2, 1, 3)),
    (2, (1,) * 99 + (2,)),
    (4, (1, 2)),
], ids=["1^23-2", "three-letters-24", "1^99-2", "scaled-copies"])
def test_characteristic_rotation_products_are_single_entries(r, omega, field):
    # the lemma past the brute-force lengths: the product along the rotation of omega
    # that starts at position j is the 0/1 matrix with a single 1 at (j, j), bitwise,
    # which gives rho = rank = 1 without an eigenvalue, rank or norm routine
    n = len(omega)
    t = characteristic_tuple(r, n, omega, field=field)
    for j in range(n):
        p = tuples.product_along(t, omega[j:] + omega[:j])
        assert p.tobytes() == np.diag(np.arange(n) == j).astype(p.dtype).tobytes(), j


def test_characteristic_self_check_names_a_corrupted_slot(monkeypatch):
    # the slot pattern check runs on the tuple as stored, before the distinctness check
    def corrupted(field, mats):
        return MatrixTuple(field, (mats[0], mats[1] + np.eye(3) * 1e-300, *mats[2:]))

    monkeypatch.setattr(constructions, "MatrixTuple", corrupted)
    with pytest.raises(ConvergenceError, match=r"^self-check failed: slot 2 is not the 0/1 map of omega's letter 2$"):
        characteristic_tuple(2, 3, (1, 2, 2))


def test_characteristic_tuple_runs_no_product_walk(monkeypatch):
    # the slots' 0/1 patterns prove the off-class products zero and P_omega's rho,
    # rank and slot norms, so no walk over products and no SVD or eigenvalue
    # routine runs, past 62 letters too
    def refuse(*args, **kw):
        raise AssertionError("characteristic_tuple walked products or called LAPACK")

    monkeypatch.setattr(tuples._PrefixStore, "walk", refuse)
    monkeypatch.setattr(np.linalg, "svd", refuse)
    monkeypatch.setattr(np.linalg, "eigvals", refuse)
    for n in (24, 63):
        assert characteristic_tuple(2, n, (1,) * (n - 1) + (2,)).d == n


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
