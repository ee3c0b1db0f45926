"""Refusals that name their reason: each InputError's message, and the exit 2 with one stderr line
of those that a file or a flag can bring to a command."""

from __future__ import annotations

import json
import re

import numpy as np
import pytest

from jsrkit import norms, tuples, words
from jsrkit.cli import main
from jsrkit.constructions import example_tuple
from jsrkit.errors import InputError

_PLANAR = tuples.MatrixTuple("real", (np.array([[0.0, 1.0], [0.3, 0.0]]), np.array([[0.0, 0.5], [1.0, 0.0]])))

# a command that meets a refusal from a file or a flag: PLANAR and BAD stand for the paths of
# _PLANAR's file and of a file that holds the case's payload
_VERIFY = ["barabanov", "verify", "--input", "PLANAR", "--norm", "BAD", "--rho-hat", "1"]
_BOUNDS = ["bounds", "--input", "BAD", "--depth", "1"]
_APPROX = ["barabanov", "approx", "--input", "PLANAR", "--rho-hat", "1"]

# id: (call, message, argv or None, payload)
_REFUSALS = {
    "lp-weights": (lambda: norms.LpNorm(2.0, ()), "lp weights must be positive and finite",
                   _VERIFY, {"variant": "ellp", "p": 2.0, "weights": [1.0, -1.0]}),
    "mesh-lengths": (lambda: norms.MeshNorm((0.0,), (1.0,)),
                     "mesh norm needs matching angle/value lists of length >= 2",
                     _VERIFY, {"variant": "mesh", "angles": [0.0], "values": [1.0]}),
    "mesh-angles": (lambda: norms.MeshNorm((0.0, 4.0), (1.0, 1.0)),
                    "mesh angles must increase strictly and stay below pi",
                    _VERIFY, {"variant": "mesh", "angles": [0.0, 0.5, 0.5], "values": [1.0, 1.0, 1.0]}),
    "norm-to-json": (lambda: norms.norm_to_json_dict(object()), "unknown norm representation object",
                     None, None),
    "weighted-max-weights": (lambda: norms.norm_from_json_dict({"variant": "weighted_max"}),
                             "weighted_max norm needs 'weights'", _VERIFY, {"variant": "weighted_max"}),
    "ellp-p": (lambda: norms.norm_from_json_dict({"variant": "ellp"}), "ellp norm needs 'p'",
               _VERIFY, {"variant": "ellp"}),
    "mesh-values": (lambda: norms.norm_from_json_dict({"variant": "mesh", "angles": [0.0, 1.0]}),
                    "mesh norm needs 'values'", _VERIFY, {"variant": "mesh", "angles": [0.0, 1.0]}),
    "norm-eval": (lambda: norms.eval_norm(object(), [1.0, 0.0]), "unknown norm representation object",
                  None, None),
    "mesh-size": (lambda: norms.approx_barabanov(_PLANAR, 1.0, mesh_size=5), "mesh size too small: 5",
                  _APPROX + ["--mesh", "5"], None),
    "slot-letter": (lambda: _PLANAR.slot(3), "letter 3 outside alphabet 1..2", None, None),
    "tuple-object": (lambda: tuples.from_json_dict([1]), "tuple payload must be a JSON object", _BOUNDS, [1]),
    "word-letters": (lambda: words.validate_word((0, 1)), "word (0, 1) has letters below 1", None, None),
    "example-scalar": (lambda: example_tuple(1, l1=[0.3], l2=0.5), "parameter l1 must be a scalar, got [0.3]",
                       None, None),
}


@pytest.mark.parametrize("name", sorted(_REFUSALS))
def test_each_refusal_names_its_reason(name, tmp_path, capsys):
    call, message, argv, payload = _REFUSALS[name]
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        call()
    if argv is None:
        return
    paths = {"PLANAR": tmp_path / "planar.json", "BAD": tmp_path / "bad.json"}
    paths["PLANAR"].write_text(tuples.to_json(_PLANAR))
    paths["BAD"].write_text(json.dumps(payload))
    argv = [str(paths.get(arg, arg)) for arg in argv]
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n"), argv
