"""The package's public names: ``__all__``, ``dir()`` and ``import *``, with
the per-object reference path bound on first access."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import reduct_forge

SRC = Path(__file__).parent.parent / "src"

# Checks the public names in a fresh interpreter, so that the names bound on
# first access are resolved there for the first time: through getattr, or,
# given "star", through ``from reduct_forge import *``.  Each must be the
# object its defining module holds.
_RESOLVE = """
import importlib, sys
import reduct_forge

reference = ["reduct_forge.partition", "reduct_forge.topology"]
assert not any(m in sys.modules for m in reference), "imported eagerly"
listed = dir(reduct_forge)
assert listed == sorted(listed) and set(reduct_forge.__all__) <= set(listed)
assert not any(m in sys.modules for m in reference), "imported by dir()"
if sys.argv[1:] == ["star"]:
    bound = {}
    exec("from reduct_forge import *", bound)
    del bound["__builtins__"]
    assert bound.keys() == set(reduct_forge.__all__), bound.keys() ^ set(reduct_forge.__all__)
else:
    bound = {name: getattr(reduct_forge, name) for name in reduct_forge.__all__}
constants = {"DEFAULT_MAX_ATTRS": "reduct_forge.reduct"}
for name, value in bound.items():
    home = constants[name] if name in constants else value.__module__
    assert home.startswith("reduct_forge."), (name, home)
    assert getattr(importlib.import_module(home), name) is value, name
assert all(m in sys.modules for m in reference)
"""


@pytest.mark.parametrize("how", ["getattr", "star"])
def test_every_public_name_resolves_to_its_defining_module(how):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", _RESOLVE, how], capture_output=True,
                          text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'reduct_forge' has no attribute 'nope'"):
        reduct_forge.nope
    # The reference modules' other names are not the package's.
    assert not hasattr(reduct_forge, "grouped")
    with pytest.raises(ImportError):
        from reduct_forge import nope  # noqa: F401
