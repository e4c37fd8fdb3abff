"""Rewrite bench/reference.json from the program at the current commit.

    python3 bench/record_reference.py

Runs every item seed of every pool once through the CLI and stores the values
the benchmark checks.  Run it only when a change is meant to alter results,
and say so in the change; a later run compares against what it wrote.
"""

from __future__ import annotations

import json
import sys

import run


def record(main, kind: str, invocations) -> dict:
    out = {}
    for inv in invocations:
        _, code, text = run.call_cli(main, inv)
        if code != 0:
            raise SystemExit(f"{' '.join(inv.args)}: exit code {code}")
        out.update(run.extract(kind, json.loads(text)))
    return out


def verify_is_heavy(seed: int) -> bool:
    """Whether the averaging suite draws symmetric:4 for this seed, as verify.averaging_suite does."""
    from ulamlab import verify

    rng = verify._suite_rng(seed, "averaging")
    return verify.POOL_SPECS[int(rng.integers(len(verify.POOL_SPECS)))] == "symmetric:4"


def main() -> int:
    run.pin_environment()
    main_cli = run.load_cli()
    reference = {
        "stabilize": record(main_cli, "stabilize",
                            [run.stabilize_invocation(s) for s in range(run.STABILIZE_POOL)]),
        "sweep": record(main_cli, "sweep", [run.sweep_invocation(s) for s in range(run.SWEEP_POOL)]),
        "verify": record(main_cli, "verify", [run.verify_invocation(s) for s in range(run.VERIFY_POOL)]),
    }
    reference["verify_heavy_seeds"] = [s for s in range(run.VERIFY_POOL) if verify_is_heavy(s)]
    run.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {run.REFERENCE_PATH}: " + ", ".join(f"{k} {len(v)}" for k, v in reference.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
