"""The package front: every public name resolves, each command loads only what it runs,
and every record is an immutable value."""

from __future__ import annotations

import ast
import inspect
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import jsrkit
from jsrkit.bounds import JsrBounds
from jsrkit.config import DEFAULTS
from jsrkit.finiteness import SfhReport
from jsrkit.norms import ApproxResult, LpNorm, MeshNorm, VerificationReport, WeightedMaxNorm
from jsrkit.structure import PropertyVerdict
from jsrkit.tuples import MatrixTuple, to_json

LAYERS = {"jsrkit.norms", "jsrkit.finiteness", "jsrkit.structure", "jsrkit.constructions"}


def test_every_public_name_resolves():
    for name in jsrkit.__all__:
        assert getattr(jsrkit, name) is not None, name
    assert set(jsrkit.__all__) <= set(dir(jsrkit))
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        jsrkit.no_such_name


def test_public_names_are_computed_not_listed():
    # the names the package's imports bind, the lazy names and the version; no submodule
    names = jsrkit.__all__
    assert len(names) == len(set(names)) == 57 and names[-1] == "__version__"
    assert not [name for name in names if name.startswith("_") and name != "__version__"]
    assert not [name for name in names if inspect.ismodule(getattr(jsrkit, name))]
    assert set(jsrkit._LAZY) < set(names)
    tree = ast.parse(Path(jsrkit.__file__).read_text(encoding="utf-8"))
    (value,) = [node.value for node in tree.body
                if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["__all__"]]
    assert not isinstance(value, ast.List)


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from jsrkit import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(jsrkit.__all__)
    assert namespace["is_irreducible"] is jsrkit.structure.is_irreducible


def test_package_bounds_stays_the_function_once_the_submodules_load():
    import jsrkit.bounds  # noqa: F401
    import jsrkit.cli  # noqa: F401
    import jsrkit.structure  # noqa: F401

    assert inspect.isfunction(jsrkit.bounds) and jsrkit.bounds.__name__ == "bounds"


def _loaded(argv, cwd):
    """The jsrkit modules, numpy.random, numpy.ma and dataclasses that
    `python -m jsrkit.cli argv` imports."""
    src = str(Path(jsrkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "jsrkit.cli", *argv],
                          cwd=cwd, capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    names = {line.rsplit("|", 1)[1].strip()
             for line in proc.stderr.splitlines() if line.startswith("import time:")}
    return {name for name in names
            if name.startswith("jsrkit") or name in ("numpy.random", "numpy.ma", "dataclasses")}


def test_each_command_imports_only_the_layers_it_runs(tmp_path):
    # example 1 (0.3, 0.5): its algebra has full dimension, so irreducible is
    # Certified before the random rounds and never needs numpy.random
    pair = MatrixTuple("real", (np.array([[0.0, 1.0], [0.3, 0.0]]),
                                np.array([[0.0, 0.5], [1.0, 0.0]])))
    (tmp_path / "pair.json").write_text(to_json(pair))
    (tmp_path / "ell3.json").write_text('{"variant": "ellp", "p": 3.0}')
    (tmp_path / "max11.json").write_text('{"variant": "weighted_max", "weights": [1.0, 1.0]}')
    core = {"jsrkit", "jsrkit.bounds", "jsrkit.tuples", "jsrkit.words"}

    words = _loaded(["words", "--alphabet", "2", "--length", "3"], tmp_path)
    bounds = _loaded(["bounds", "--input", "pair.json", "--depth", "3"], tmp_path)
    construct = _loaded(["construct", "--word", "1,2"], tmp_path)
    # the offender scan of a 12-letter word looks its rotations up among blocks of up to 2^12 - 12
    # off-class words, large enough that np.isin would sort
    long_word = _loaded(["sfh", "--input", "pair.json", "--word", "1,2,1,1,2,2,2,2,1,2,2,2",
                         "--norm", "max11.json", "--rho-hat", "1"], tmp_path)
    irreducible = _loaded(["irreducible", "--input", "pair.json"], tmp_path)
    approx = _loaded(["barabanov", "approx", "--input", "pair.json", "--rho-hat", "1"], tmp_path)
    sfh = _loaded(["sfh", "--input", "pair.json", "--word", "1,2", "--rho-hat", "1"], tmp_path)
    rank1 = _loaded(["rank1", "--input", "pair.json", "--depth", "3"], tmp_path)
    verify = _loaded(["barabanov", "verify", "--input", "pair.json", "--norm", "ell3.json", "--samples", "100"],
                     tmp_path)

    assert core <= words and not words & LAYERS
    assert core <= bounds and not bounds & LAYERS
    assert "jsrkit.constructions" in construct
    # a characteristic word's truth record lists no norm, so the norm layer stays unloaded
    assert not construct & {"jsrkit.finiteness", "jsrkit.structure", "jsrkit.norms"}
    assert "numpy.ma" not in construct and "numpy.ma" not in long_word
    assert "jsrkit.structure" in irreducible and "numpy.random" not in irreducible
    assert "jsrkit.norms" in approx and {"jsrkit.finiteness", "jsrkit.norms"} <= sfh
    # the rank-one test runs two level passes and nothing of the norm layers
    assert core | {"jsrkit.structure"} <= rank1
    assert not rank1 & {"jsrkit.norms", "numpy.random", "jsrkit.finiteness", "jsrkit.constructions"}
    # a sampled verification draws its directions, and needs no structure or word search
    assert core | {"jsrkit.norms", "numpy.random"} <= verify
    assert not verify & {"jsrkit.structure", "jsrkit.finiteness", "jsrkit.constructions"}
    # records are built without dataclasses, whose import and generated code every op would pay
    for loaded in (words, bounds, construct, long_word, irreducible, approx, sfh, rank1, verify):
        assert "dataclasses" not in loaded


# each record, built from fresh lists so that two calls give equal, distinct objects
RECORDS = {
    "Defaults": lambda: DEFAULTS,
    "MatrixTuple": lambda: MatrixTuple("real", [[[0, 1], [2, 0]]]),
    "JsrBounds": lambda: JsrBounds(0.5, 1.0, 2, (1, 2), 1, False),
    "PropertyVerdict": lambda: PropertyVerdict("Certified", {"dimension": 4}),
    "VerificationReport": lambda: VerificationReport("barabanov", 1.0, 0.0, 1e-9, True, 8),
    "ApproxResult": lambda: ApproxResult(MeshNorm([0, 1], [1, 2]), 3, True, 1e-7),
    "SfhReport": lambda: SfhReport((1, 2), 2, 1.0, 0.5, (), 1),
    "WeightedMaxNorm": lambda: WeightedMaxNorm([1, 2]),
    "LpNorm": lambda: LpNorm(3, [1, 2]),
    "MeshNorm": lambda: MeshNorm([0, 1], [1, 2]),
}
# each norm's repr, which shows the public fields only, and a norm of its kind with another value
NORMS = {
    "WeightedMaxNorm": ("WeightedMaxNorm(weights=(1.0, 2.0))", WeightedMaxNorm((1.0, 3.0))),
    "LpNorm": ("LpNorm(p=3.0, weights=(1.0, 2.0))", LpNorm(3.0)),
    "MeshNorm": ("MeshNorm(angles=(0.0, 1.0), values=(1.0, 2.0))", MeshNorm((0.0, 1.0), (1.0, 3.0))),
}


@pytest.mark.parametrize("name", RECORDS)
def test_every_record_is_an_immutable_value(name):
    record = RECORDS[name]()
    fields = type(record)._fields
    assert type(record).__name__ == name and len(fields) >= 1
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    assert pickle.loads(pickle.dumps(record)) == record
    # a record is not a tuple: it equals no plain tuple of its values
    values = tuple(getattr(record, field) for field in fields)
    assert record != values and values != record
    shown = ", ".join(f"{field}={value!r}" for field, value in zip(fields, values))
    assert repr(record) == f"{name}({shown})"
    if name in NORMS:
        shown, other = NORMS[name]
        twin = RECORDS[name]()
        assert twin is not record and twin == record and hash(twin) == hash(record)
        assert other != record and repr(record) == shown


def test_a_plain_record_binds_each_field_once():
    report = VerificationReport("barabanov", 1.0, 0.0, tol=1e-9, passed=True, sample_count=8)
    assert report == RECORDS["VerificationReport"]()
    calls = {
        "got 5 by position and [] by name": lambda: VerificationReport("barabanov", 1.0, 0.0, 1e-9, True),
        "got 7 by position": lambda: VerificationReport("barabanov", 1.0, 0.0, 1e-9, True, 8, 9),
        "got 6 by position and ['kind'] by name": lambda: VerificationReport(
            "barabanov", 1.0, 0.0, 1e-9, True, 8, kind="extremal"),
        "got 5 by position and ['count'] by name": lambda: VerificationReport(
            "barabanov", 1.0, 0.0, 1e-9, True, count=8),
    }
    for message, call in calls.items():
        with pytest.raises(TypeError, match=r"VerificationReport takes the fields \('kind', .*\) once each, "
                           + re.escape(message)):
            call()


def test_no_record_is_built_on_namedtuple():
    # one record type, config._Record: a NamedTuple class costs about ten times
    # as much to create, and its instances would be tuples
    found = []
    for path in sorted(Path(jsrkit.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = []
            if isinstance(node, ast.ClassDef):
                names = node.bases
            elif isinstance(node, ast.Call):
                names = [node.func]
            for base in names:
                name = base.attr if isinstance(base, ast.Attribute) else getattr(base, "id", "")
                if name in ("NamedTuple", "namedtuple"):
                    found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _private_definitions(tree: ast.Module) -> set[str]:
    """Module-level functions, classes and assignments named _x (not dunders)."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name))
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def test_no_private_helper_is_left_without_a_reference():
    # a helper whose last caller went away should go with it
    defined, used = {}, set()
    for path in sorted(Path(jsrkit.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        defined.update(dict.fromkeys(_private_definitions(tree), path.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    assert len(defined) > 40  # the walk saw the package
    assert {name: where for name, where in defined.items() if name not in used} == {}
