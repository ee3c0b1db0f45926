"""The README names only code that exists."""

from __future__ import annotations

import importlib
import pkgutil
import re
from pathlib import Path

import jsrkit

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_module_references_resolve():
    # every `module.name` (or `module.name(...)`) naming a jsrkit submodule
    submodules = {info.name for info in pkgutil.iter_modules(jsrkit.__path__)}
    refs = re.findall(r"`(\w+)\.(\w+)", README.read_text(encoding="utf-8"))
    refs = [(module, name) for module, name in refs if module in submodules]
    assert len(refs) >= 10
    missing = [f"{module}.{name}" for module, name in refs
               if not hasattr(importlib.import_module(f"jsrkit.{module}"), name)]
    assert missing == []



def test_readme_quick_start_runs_and_prints_its_comments(capsys):
    # the python block under "Library quick start"
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## Library quick start\n\n```python\n(.*?)^```", text, re.S | re.M).group(1)
    exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines() == ["1.0 1.0 (1, 2)", "Certified", "True 9", "True", "0.5 ()"]
