"""Seeded scenario generator for the ``finsler3d`` and ``reject`` workloads.

The same seed always gives the same files.  Each parameter is drawn from
a small box, so that every seed yields the same kind of run at about the
same cost:

* ``finsler3d``: a ``quartic_flrw`` model with n = 3 (a genuinely Finsler
  metric on a 4-dimensional chart).  The box always forms a valid SCLV on
  which the ``bg`` and ``gunther`` checks PASS.
* ``reject``: one input of each family that cannot form an SCLV:
  an affine FLRW collapse (q < 0) cut past the degeneration, and an
  ``einstein_static`` boosted fan cut past its conjugate point.

Usage: python3 bench/inputs.py WORKLOAD SEED OUT_DIR
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import yaml


def _draw(rng, lo, hi):
    return round(rng.uniform(lo, hi), 6)


def finsler3d(seed: int) -> list[dict]:
    rng = random.Random(f"finsler3d/{seed}")
    return [{
        "name": f"finsler3d-s{seed}",
        "model": {"name": "quartic_flrw", "n": 3,
                  "params": {"eps": _draw(rng, 0.048, 0.052),
                             "H": _draw(rng, 0.095, 0.105)}},
        "sclv": {"apex": [_draw(rng, -0.01, 0.01), 0.0, 0.0, 0.0],
                 "radius": 0.3, "cut": 1.0},
        "checks": {"bg": {"N": 5.0, "pairs": [[0.5, 1.0]]}, "gunther": {}},
        "numerics": {"quad_scale": 0.5},
    }]


def reject(seed: int) -> list[dict]:
    rng = random.Random(f"reject/{seed}")
    # a = a0 + q t degenerates at t = a0/|q| in [2.47, 2.53]; the cut lies past it
    collapse = {
        "name": f"reject-collapse-s{seed}",
        "model": {"name": "flrw", "n": 1,
                  "params": {"scale": "affine", "a0": 1.0,
                             "q": _draw(rng, -0.405, -0.395)}},
        "sclv": {"apex": [0.0, 0.0], "radius": 0.3,
                 "cut": _draw(rng, 2.98, 3.02)},
        "checks": {"gunther": {}},
        "numerics": {"quad_scale": 0.125},
    }
    # tangential boost on the static sphere: conjugate point near t = 4.2-4.3
    conjugate = {
        "name": f"reject-conjugate-s{seed}",
        "model": {"name": "einstein_static", "n": 2, "params": {"radius": 1.0}},
        "sclv": {"apex": [0.0, _draw(rng, 0.498, 0.502), 0.0], "radius": 0.05,
                 "cut": _draw(rng, 4.49, 4.51), "center": [0.0, 0.375]},
        "checks": {"gunther": {}},
        "numerics": {"quad_scale": 0.5},
    }
    return [collapse, conjugate]


GENERATORS = {"finsler3d": finsler3d, "reject": reject}


def write(workload: str, seed: int, out_dir: Path) -> list[Path]:
    """Write the workload's scenario files into out_dir; return their paths."""
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for doc in GENERATORS[workload](seed):
        path = out_dir / f"{doc['name']}.yaml"
        path.write_text(yaml.safe_dump(doc, sort_keys=False))
        paths.append(path)
    return paths


if __name__ == "__main__":
    if len(sys.argv) != 4 or sys.argv[1] not in GENERATORS:
        raise SystemExit(f"usage: inputs.py {{{','.join(GENERATORS)}}} SEED OUT_DIR")
    for p in write(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])):
        print(p)
