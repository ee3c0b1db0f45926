"""The package front: every public name resolves, and each command loads only what it runs."""

from __future__ import annotations

import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import jsrkit
from jsrkit.tuples import MatrixTuple, to_json

LAYERS = {"jsrkit.norms", "jsrkit.finiteness", "jsrkit.structure", "jsrkit.constructions"}


def test_every_public_name_resolves():
    for name in jsrkit.__all__:
        assert getattr(jsrkit, name) is not None, name
    assert set(jsrkit.__all__) <= set(dir(jsrkit))
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        jsrkit.no_such_name


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
    """The jsrkit modules, numpy.random and numpy.ma that `python -m jsrkit.cli argv` imports."""
    src = str(Path(jsrkit.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "jsrkit.cli", *argv],
                          cwd=cwd, capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    names = {line.rsplit("|", 1)[1].strip()
             for line in proc.stderr.splitlines() if line.startswith("import time:")}
    return {name for name in names if name.startswith("jsrkit") or name in ("numpy.random", "numpy.ma")}


def test_each_command_imports_only_the_layers_it_runs(tmp_path):
    # example 1 (0.3, 0.5): its algebra has full dimension, so irreducible is
    # Certified before the random rounds and never needs numpy.random
    pair = MatrixTuple("real", (np.array([[0.0, 1.0], [0.3, 0.0]]),
                                np.array([[0.0, 0.5], [1.0, 0.0]])))
    (tmp_path / "pair.json").write_text(to_json(pair))
    core = {"jsrkit", "jsrkit.bounds", "jsrkit.tuples", "jsrkit.words"}

    words = _loaded(["words", "--alphabet", "2", "--length", "3"], tmp_path)
    bounds = _loaded(["bounds", "--input", "pair.json", "--depth", "3"], tmp_path)
    construct = _loaded(["construct", "--word", "1,2"], tmp_path)
    # n = 12 checks the 2^12 - 12 off-class products in blocks large enough that np.isin would sort
    long_word = _loaded(["construct", "--word", "1,2,1,1,2,2,2,2,1,2,2,2"], tmp_path)
    irreducible = _loaded(["irreducible", "--input", "pair.json"], tmp_path)

    assert core <= words and not words & LAYERS
    assert core <= bounds and not bounds & LAYERS
    assert "jsrkit.constructions" in construct
    assert not construct & {"jsrkit.finiteness", "jsrkit.structure"}
    assert "numpy.ma" not in construct and "numpy.ma" not in long_word
    assert "jsrkit.structure" in irreducible and "numpy.random" not in irreducible


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
