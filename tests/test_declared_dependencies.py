"""The package imports and runs on its declared dependencies alone.

``pyproject.toml`` declares numpy only.  A fresh interpreter with
networkx blocked by a meta-path finder (as on an install where it is
absent) must still import every module of ``repro`` and run the exact
stationary-distribution checks, which are the code that once used it.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC_DIR = Path(repro.__file__).resolve().parent.parent

_CHILD_SCRIPT = r"""
import importlib
import pkgutil
import sys


class BlockNetworkx:
    def find_spec(self, name, path=None, target=None):
        if name == "networkx" or name.startswith("networkx."):
            raise ImportError(f"{name} is blocked")
        return None


sys.meta_path.insert(0, BlockNetworkx())
try:
    import networkx  # noqa: F401
except ImportError:
    pass
else:
    raise SystemExit("the blocker did not block networkx")

import repro

for module in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(module.name)

from repro.core.stationary import (
    build_state_space,
    transition_matrix,
    verify_irreducibility,
    verify_transience_of_holes,
)

space = build_state_space(4)
matrix = transition_matrix(space, 2.0)
assert verify_irreducibility(space, matrix)
assert verify_transience_of_holes(space, matrix)
assert "networkx" not in sys.modules
print("ok", flush=True)
"""


def test_repro_imports_and_runs_without_networkx():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD_SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, f"stdout={proc.stdout!r} stderr={proc.stderr!r}"
    assert proc.stdout.split() == ["ok"]
