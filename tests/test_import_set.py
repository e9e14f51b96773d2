"""The library loads numpy and scipy.special, and no heavier scipy subpackage.

``scipy.stats`` alone costs tens of MB of resident memory and most of a
second of start-up, and it pulls in ``scipy.optimize`` and ``scipy.linalg``.
Tests and demos 01/06 still use those modules as oracles, so the check runs
in a fresh interpreter.
"""

import os
import subprocess
import sys
from pathlib import Path

import protoadapt

HEAVY = ("scipy.stats", "scipy.optimize", "scipy.linalg")


def test_import_loads_no_heavy_scipy_subpackage():
    src = str(Path(protoadapt.__file__).resolve().parents[1])
    path = os.pathsep.join([src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    code = ("import sys, protoadapt, protoadapt.cli\n"
            f"print(' '.join(m for m in {HEAVY!r} if m in sys.modules))\n"
            "print('scipy.special' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, check=True).stdout.splitlines()
    assert out == ["", "True"]
