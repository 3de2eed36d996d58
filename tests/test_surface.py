"""The package's public surface: README's library example runs as
written, and each module's ``__all__`` names what the module defines."""

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import precodesim
from helpers import SRC, run_child

MODULES = [m.name for m in pkgutil.iter_modules(precodesim.__path__) if m.name != "__main__"]


def test_readme_library_example_runs():
    readme = (Path(SRC).parent / "README.md").read_text()
    (code,) = re.findall(r"## Library use\n.*?```python\n(.*?)```", readme, re.S)
    proc = run_child(["-c", code], OPENBLAS_NUM_THREADS="1")
    assert proc.returncode == 0, proc.stderr
    # one report line, then one line per searched level
    assert len(proc.stdout.splitlines()) == 4


@pytest.mark.parametrize("name", MODULES)
def test_all_names_are_defined(name):
    module = importlib.import_module(f"precodesim.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing
