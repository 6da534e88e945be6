"""scripts/memory_profile.py, run on a bundled scenario in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
STAGES = ("quadrature", "record", "fan flow", "post-scan", "curvature pass",
          "density", "checks", "oracle")


def test_memory_profile_reports_every_stage(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [q for q in [os.environ.get("PYTHONPATH")] if q]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "memory_profile.py"), "all",
         "--scenario", str(ROOT / "scenarios" / "mink2_bg_anchor.yaml"), "--out", str(tmp_path)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    rows = {line[:16].strip(): line.split()[-4:] for line in proc.stdout.splitlines()}
    for stage in STAGES:    # each ran at least once: no "-" columns
        assert stage in rows and "-" not in rows[stage], proc.stdout
