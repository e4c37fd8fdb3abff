"""Record the golden reports that ``tests/test_golden.py`` compares the CLI against.

    python tests/record_golden.py

Runs every command of ``COMMANDS`` as its own ``python -m ulamlab.cli``
process, so the CLI pins BLAS to one thread before numpy loads.  Each report
is written without its ``timings`` to ``tests/golden/<name>.json``, and the
platform it was made on to ``tests/golden/platform.json``.  A change that
moves reported bits on purpose re-records them and gives the reason in
CHANGES.md.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
PLATFORM = GOLDEN / "platform.json"
PROCESSES = 2  # commands run at once

_RECIPES = {
    "trivial": '{"kind":"trivial"}',
    "random3": '{"kind":"random_map","dim":3}',
    "character2": '{"kind":"character","k":2}',
}
_MAPS = (
    ("freeball:2:3", "trivial"),
    ("freeball:2:3", "random3"),
    ("freeball:3:3", "trivial"),
    ("freeball:3:3", "random3"),
    ("cyclic:5", "character2"),
    ("cyclic:40", "character2"),
)
# report name -> CLI arguments, the longest runs first so that they start first
COMMANDS = {
    "verify_0_89": ["verify", "--seeds", "0..89"],
    "stabilize_symmetric_4": [
        "stabilize", "--group", "symmetric:4", "--theta", "0.03", "--seeds", "0..7"
    ],
    "sweep_dihedral_4": ["sweep", "--group", "dihedral:4", "--theta", "0.01,0.04,0.08"],
    "dixmier_cyclic_8": ["dixmier", "--group", "cyclic:8", "--seeds", "0..3"],
}
COMMANDS.update(
    {
        f"{command}_{group.replace(':', '_')}_{recipe}": [
            command, "--group", group, "--genspec", _RECIPES[recipe]
        ]
        for command in ("gen", "defects")
        for group, recipe in _MAPS
    }
)


def run_report(args: list[str]) -> str:
    """The report of ``ulamlab <args>``, rendered as the CLI does but without ``timings``."""
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path)
    env.pop("ULAMLAB_SEED_SALT", None)
    proc = subprocess.run(
        [sys.executable, "-m", "ulamlab.cli", *args],
        cwd=ROOT, env=env, capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"ulamlab {' '.join(args)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    report = json.loads(proc.stdout)
    del report["timings"]
    return json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"


def run_reports() -> dict[str, str]:
    """Every report of ``COMMANDS``, by name."""
    with ThreadPoolExecutor(PROCESSES) as pool:
        return dict(zip(COMMANDS, pool.map(run_report, COMMANDS.values())))


def fingerprint() -> dict:
    """What the last bits of a report depend on besides the code."""
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        blas_id, simd = f"{blas['name']} {blas['version']}", config["SIMD Extensions"]
    except (TypeError, KeyError):  # a numpy without the dict form
        blas_id, simd = "unknown", "unknown"
    return {
        "numpy": np.__version__,
        "blas": blas_id,
        "simd": simd,
        "python": platform.python_version(),
    }


def main() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for stale in GOLDEN.glob("*.json"):
        stale.unlink()
    for name, text in run_reports().items():
        (GOLDEN / f"{name}.json").write_text(text)
    PLATFORM.write_text(json.dumps(fingerprint(), sort_keys=True, indent=2) + "\n")
    print(f"recorded {len(COMMANDS)} reports in {GOLDEN}")


if __name__ == "__main__":
    main()
