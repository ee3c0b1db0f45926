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
