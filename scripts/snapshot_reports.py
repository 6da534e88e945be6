#!/usr/bin/env python3
"""Write every output a report-identity check needs into one directory.

Usage:
    python3 scripts/snapshot_reports.py OUT

Runs, each in a fresh interpreter on this checkout's ``src``:

* ``lfgeom all`` on the 8 bundled scenarios, on the ``finsler3d``
  seed-0 input, on ``near-cone-n2`` and on ``sphere-ball``, writing their
  JSON and CSV reports into OUT;
* ``lfgeom geodesic``, ``lfgeom curvature`` and ``lfgeom jacobi`` on the
  8 bundled scenarios, whose CSVs hold the sampled center geodesic and
  the 64 center samples of the curvature and Jacobi scalars that the
  ``all`` reports only summarise;
* ``lfgeom validate-model`` and the four single-check subcommands
  (``bg``, ``gunther``, ``bg-inf``, ``ball``) on the 8 bundled scenarios:
  a check that a scenario does not configure exits 2, and one that it
  does writes its diagnostic CSV;
* ``lfgeom all`` and ``lfgeom validate-model`` with ``--seed 7`` on
  ``seed-7``, a copy of ``flrw1_cosh_all``, so that validate-model's
  random draw is pinned off the default seed;
* ``lfgeom all`` on ``no-checks-n2``, ``mink2_gunther_weighted`` with its
  ``checks`` block removed, which integrates the center Jacobi path alone
  and writes its CSV;
* ``lfgeom gunther`` and ``lfgeom all`` on both ``reject`` seed-0 inputs
  and on ``even-conjugate-n3``, none of which writes a report: both
  commands integrate the same fan, the patch center included, so they
  must reject each input with the same exit code and stderr.

The ``finsler3d`` and ``reject`` inputs come from ``bench/inputs.py``,
which writes them into OUT/inputs.  ``even-conjugate-n3`` is written
there too: an ``einstein_static`` n = 3 fan cut past its first conjugate
point, where det A only touches zero, so its stderr pins the exit that
the post-scan's dip refinement locates (direction 80, t = 3.5523).
``near-cone-n2`` is written there too: ``mink2_gunther_weighted`` with
its patch widened to radius 0.97, a valid SCLV close to the light cone
whose coordinate-volume oracle must run with every ray inside the patch.
``sphere-ball`` is written there too: ``boosted_sphere_gunther_fail``
with its checks replaced by the ball check, whose scanned c > 0 takes the
closed-form bound's erfcx branch (``seed-7`` and ``flrw1_cosh_all``, with
c < 0, take its Dawson branch).
``seed-7`` and ``no-checks-n2`` are written there too, renamed so that
their reports do not overwrite the bundled ones in OUT.
OUT/runs.json records the exit code
and stderr text of every run (its key names the command, any extra flag
and the input file).  Two snapshots, say of a parent commit and
of a change, are then compared in one command by
``scripts/compare_reports.py OUT_A OUT_B``; exit codes and stderr are
exact leaves there.  Exit code 0 once every run has ended, whatever its
own exit code.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": "0",
       "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# the "reject-conjugate" fan with one more spatial dimension: on a round S^3
# two Jacobi fields vanish together, so no sign change marks the exit
EVEN_CONJUGATE = {
    "name": "even-conjugate-n3",
    "model": {"name": "einstein_static", "n": 3, "params": {"radius": 1.0}},
    "sclv": {"apex": [0.0, 0.49918, 0.0, 0.0], "radius": 0.05, "cut": 4.5,
             "center": [0.0, 0.375, 0.0]},
    "checks": {"gunther": {}},
    "numerics": {"quad_scale": 0.5},
}


def _inputs(workload, directory):
    done = subprocess.run([sys.executable, str(ROOT / "bench" / "inputs.py"), workload, "0",
                           str(directory)], capture_output=True, text=True, check=True)
    return [Path(line) for line in done.stdout.split()]


def _write_input(spec, directory):
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{spec['name']}.yaml"
    path.write_text(yaml.safe_dump(spec, sort_keys=False))
    return path


def _bundled(stem, name):
    """A bundled scenario renamed, so that its reports do not overwrite the
    bundled ones in OUT."""
    spec = yaml.safe_load((ROOT / "scenarios" / f"{stem}.yaml").read_text())
    spec["name"] = name
    return spec


def _near_cone():
    """A valid SCLV near the light cone."""
    spec = _bundled("mink2_gunther_weighted", "near-cone-n2")
    spec["sclv"]["radius"] = 0.97
    return spec


def _sphere_ball():
    """A ball check whose scanned Ric_oo bound c is positive."""
    spec = _bundled("boosted_sphere_gunther_fail", "sphere-ball")
    spec["checks"] = {"ball": {"eps": 0.02, "r_grid": [0.45, 0.9, 1.5]}}
    return spec


def _no_checks():
    """A scenario without checks: `all` runs the center Jacobi path alone."""
    spec = _bundled("mink2_gunther_weighted", "no-checks-n2")
    del spec["checks"]
    return spec


def _lfgeom(command, scenario, out, *flags):
    done = subprocess.run([sys.executable, "-m", "lfgeom.cli", command, "--scenario",
                           str(scenario), "--out", str(out), *flags],
                          capture_output=True, text=True, env=ENV, cwd=ROOT)
    return {"exit": done.returncode, "stderr": done.stderr}


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: snapshot_reports.py OUT", file=sys.stderr)
        return 2
    out = Path(argv[0]).resolve()   # the lfgeom runs work in ROOT, not in the caller's cwd
    out.mkdir(parents=True, exist_ok=True)
    runs = {}
    bundled = sorted((ROOT / "scenarios").glob("*.yaml"))
    for path in [*bundled, *_inputs("finsler3d", out / "inputs"),
                 _write_input(_near_cone(), out / "inputs"),
                 _write_input(_sphere_ball(), out / "inputs"),
                 _write_input(_no_checks(), out / "inputs")]:
        runs[f"all {path.name}"] = _lfgeom("all", path, out)
    for path in bundled:
        for command in ("geodesic", "curvature", "jacobi", "validate-model",
                        "bg", "gunther", "bg-inf", "ball"):
            runs[f"{command} {path.name}"] = _lfgeom(command, path, out)
    seeded = _write_input(_bundled("flrw1_cosh_all", "seed-7"), out / "inputs")
    for command in ("all", "validate-model"):
        runs[f"{command} --seed 7 {seeded.name}"] = _lfgeom(command, seeded, out, "--seed", "7")
    for path in [*_inputs("reject", out / "inputs"), _write_input(EVEN_CONJUGATE, out / "inputs")]:
        for command in ("gunther", "all"):
            runs[f"{command} {path.name}"] = _lfgeom(command, path, out)
    (out / "runs.json").write_text(json.dumps(runs, indent=1, sort_keys=True) + "\n")
    for name, run in runs.items():
        print(f"{name}: exit {run['exit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
