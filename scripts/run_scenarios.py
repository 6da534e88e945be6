#!/usr/bin/env python3
"""Run every bundled scenario through the full check pipeline and print a
verdict table.

Usage:
    python3 scripts/run_scenarios.py [--out reports] [--resolution-scale 1.0]

Writes one JSON report and one diagnostics CSV per scenario into --out and
summarises verdict + worst margin per check on stdout.  A scenario that
exits 2 or 3 writes no report: its exit code is printed instead, and it
counts as unexpected.  Exit code is 1 if any scenario other than a
deliberate negative control fails.
"""

import argparse
import json
import sys
from pathlib import Path

from lfgeom import cli
from lfgeom.scenario import load_scenario

ROOT = Path(__file__).resolve().parent.parent
NEGATIVE_CONTROLS = {"boosted-sphere-gunther-fail"}


def worst_margin(check_body):
    rows = check_body.get("results", [])
    margins = [r["margin"] for r in rows if "margin" in r]
    return min(margins) if margins else float("nan")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=str(ROOT / "reports"))
    ap.add_argument("--resolution-scale", type=float, default=1.0)
    args = ap.parse_args(argv)

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    scenario_files = sorted((ROOT / "scenarios").glob("*.yaml"))
    if not scenario_files:
        print("no scenario files found", file=sys.stderr)
        return 2

    bad = []
    for path in scenario_files:
        code = cli.main([
            "all", "--scenario", str(path), "--out", str(outdir),
            "--resolution-scale", str(args.resolution_scale),
        ])
        if code not in (0, 1):  # configuration error or numerical abort: no report
            print(f"\n{path.stem}  (exit {code}, no report)")
            bad.append(path.stem)
            continue
        name = load_scenario(path).name
        rep = json.loads((outdir / f"{name}-all.json").read_text())
        control = name in NEGATIVE_CONTROLS
        print(f"\n{name}  (exit {code}{', negative control' if control else ''})")
        print(f"  overall: {rep['verdict']}")
        for check, body in sorted(rep.get("checks", {}).items()):
            print(f"  {check:8s} {body['verdict']:16s} "
                  f"worst margin {worst_margin(body):+.6g}")
        if "volume_oracle" in rep:
            vo = rep["volume_oracle"]
            print(f"  oracle   {vo['verdict']:16s} rel diff "
                  f"{vo.get('rel_diff', float('nan')):.3g}, coordinate error "
                  f"{vo.get('coordinate_error', float('nan')):.3g}")
        if (code != 0) != control:
            bad.append(name)

    if bad:
        print(f"\nunexpected outcomes: {', '.join(bad)}", file=sys.stderr)
        return 1
    print(f"\n{len(scenario_files)} scenarios behaved as expected")
    return 0


if __name__ == "__main__":
    sys.exit(main())
