import os
import subprocess
import sys
from pathlib import Path

import ulamlab


def test_public_names_resolve_once():
    names = ulamlab.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(ulamlab, n)] == []


LAZY_IMPORT = """
import os, sys
import ulamlab
assert "numpy" not in sys.modules, "import ulamlab loaded numpy"
import ulamlab.cli
threads = [os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")]
assert threads == ["1", "1"], threads
import ulamlab.stabilize
assert ulamlab.stabilize is sys.modules["ulamlab.stabilize"].stabilize, ulamlab.stabilize
"""


def test_import_loads_no_numpy_so_the_cli_can_pin_blas():
    # a fresh interpreter: this one has numpy loaded already
    src = str(Path(ulamlab.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "4", "OMP_NUM_THREADS": "4"}
    proc = subprocess.run(
        [sys.executable, "-c", LAZY_IMPORT], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
