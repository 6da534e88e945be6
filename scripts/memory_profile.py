#!/usr/bin/env python3
"""Peak memory of one `lfgeom` run, stage by stage.

Usage:
    PYTHONPATH=src python3 scripts/memory_profile.py SUBCOMMAND --scenario FILE [lfgeom options]

Runs ``lfgeom SUBCOMMAND`` in this process (reports go to a temporary
directory unless ``--out`` is given) with `tracemalloc` on, and wraps the
functions of each pipeline stage:

    quadrature     comparison.build_quadrature
    record         jets.record (each jet program, on its first use)
    fan flow       comparison.variational_paths (the SCLV fan's one flow)
    post-scan      geodesics._post_scan_flow (the flow's validity scan)
    curvature pass jacobi.scalars_for_paths(flow, ids, ts) (the one order-5
                   sample pass: one PathScalars of (direction x sample)
                   arrays; the center's one-direction pass too)
    density        comparison._density(data, ts) (the ball check's epsilon
                   search: (direction x time) arrays)
    checks         the check functions of `cli.CHECKS`
    oracle         comparison.coordinate_volume

For each stage it prints how often it ran, the process's peak RSS
(``ru_maxrss``) before its first call and after its last, and the highest
traced memory (every live allocation, numpy arrays included, not only
the stage's own) seen during one of its calls.  A stage nested in another
(the post-scan runs inside the fan flow, records inside both) counts
toward both peaks.
`tracemalloc` keeps its own tables in the process, so the RSS column runs
higher than an untraced run's.  A stage that did not run prints "-".
"""

import resource
import sys
import tempfile
import tracemalloc

from lfgeom import cli, comparison, geodesics, jacobi, jets

STAGES = {
    "quadrature": [(comparison, "build_quadrature")],
    "record": [(jets, "record")],
    "fan flow": [(comparison, "variational_paths")],
    "post-scan": [(geodesics, "_post_scan_flow")],
    "curvature pass": [(comparison, "scalars_for_paths"), (jacobi, "scalars_for_paths")],
    "density": [(comparison, "_density")],
    "checks": [(comparison, name) for name in cli.CHECKS.values()],
    "oracle": [(comparison, "coordinate_volume")],
}


def _maxrss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Profile:
    """Per-stage calls, RSS before the first call and after the last, and
    the largest traced peak of one call; nested stages fold their peak into
    the stage that encloses them."""

    def __init__(self):
        self.rows = {name: {"calls": 0, "rss_before": None, "rss_after": None, "peak": 0}
                     for name in STAGES}
        self.stack = []     # traced peak so far of each open call, outermost first

    def wrap(self, name, fn):
        row = self.rows[name]

        def staged(*args, **kwargs):
            if self.stack:      # the enclosing call keeps the peak it reached so far
                self.stack[-1] = max(self.stack[-1], tracemalloc.get_traced_memory()[1])
            if row["rss_before"] is None:
                row["rss_before"] = _maxrss_mb()
            tracemalloc.reset_peak()
            self.stack.append(0)
            try:
                return fn(*args, **kwargs)
            finally:
                peak = max(self.stack.pop(), tracemalloc.get_traced_memory()[1])
                row["calls"] += 1
                row["rss_after"] = _maxrss_mb()
                row["peak"] = max(row["peak"], peak)
                if self.stack:
                    self.stack[-1] = max(self.stack[-1], peak)
        return staged

    def install(self):
        for name, targets in STAGES.items():
            for mod, attr in targets:
                setattr(mod, attr, self.wrap(name, getattr(mod, attr)))

    def table(self):
        lines = [f"{'stage':<16}{'calls':>6}{'rss before MB':>15}{'rss after MB':>14}"
                 f"{'traced peak MB':>16}"]
        for name, r in self.rows.items():
            if not r["calls"]:
                lines.append(f"{name:<16}{0:>6}{'-':>15}{'-':>14}{'-':>16}")
                continue
            lines.append(f"{name:<16}{r['calls']:>6}{r['rss_before']:>15.1f}"
                         f"{r['rss_after']:>14.1f}{r['peak'] / 2**20:>16.1f}")
        return "\n".join(lines)


def main(argv):
    profile = Profile()
    profile.install()
    with tempfile.TemporaryDirectory(prefix="lfgeom-memory-") as out:
        tracemalloc.start()
        status = cli.main(argv if "--out" in argv else [*argv, "--out", out])
        tracemalloc.stop()
    print(profile.table())
    print(f"exit status {status}, process peak RSS {_maxrss_mb():.1f} MB")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
