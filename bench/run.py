"""lfgeom benchmark: one workload, one seed, one closed-loop client.

Usage:
    python3 bench/run.py --workload {bundled,finsler3d,reject} --seed N
                         [--seconds S] [--trace {0,1}]

Each op is one fresh ``lfgeom`` CLI process (``bench/op.py``); the next op
starts only after the previous one has exited, so interpreter start-up,
import and lazy jet-table set-up are paid on every op, as in real use.
A pass runs every op of the workload once.  Whole passes run, tracing
off, as long as one more pass is expected to end within ``--seconds`` of
measuring (at least one pass runs); with the default of 35 s that is two
passes of ``finsler3d`` and one of ``bundled`` and ``reject``.

``--trace 1`` (the default) then runs one traced pass for the per-layer
metrics and prints every metric; ``--trace 0`` stops after the untraced
passes.  The last line is one JSON object whose ``metrics`` hold the
end-to-end metrics with ``--trace 0`` and the per-layer ones with
``--trace 1``.

Every op passes a correctness gate (exit status, no traceback, expected
verdict, closed-form anchor, oracle agreement); the command exits 1 if
any op failed it.  Metric names and units are read from
``BENCHMARK.json``.  Run files (spans, per-op logs, provenance) are kept
in ``bench/.work/<workload>/``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib.metadata import version
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCENARIOS = ROOT / "scenarios"
WORK = HERE / ".work"

RUN_BUDGET_S = 170       # every run must end within 180 s
PASS_BUDGET_S = 35.0     # default --seconds, run_seconds in BENCHMARK.json
BLAS_THREADS = 1         # pinned for steady timings on a shared host
SETUP_SAMPLES = 5        # import timings behind the setup_s median
CHILD_ENV = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": "0",
             "OPENBLAS_NUM_THREADS": str(BLAS_THREADS),
             "OMP_NUM_THREADS": str(BLAS_THREADS),
             "MKL_NUM_THREADS": str(BLAS_THREADS)}

# bundled scenario -> expected (exit status, overall verdict)
BUNDLED = {
    "boosted_sphere_gunther_fail.yaml": (1, "FAIL"),
    "desitter2_gunther.yaml": (0, "PASS"),
    "flrw1_cosh_all.yaml": (0, "PASS"),
    "mink2_ball.yaml": (0, "PASS"),
    "mink2_bg_anchor.yaml": (0, "PASS"),
    "mink2_bginf_x0.yaml": (0, "PASS"),
    "mink2_gunther_decaying.yaml": (0, "PASS"),
    "mink2_gunther_weighted.yaml": (0, "PASS"),
}
# closed form: finite-N ratio margin at (r, R, N) = (0.5, 1, 4) in flat 2+1
ANCHOR_SCENARIO, ANCHOR_MARGIN = "mink2_bg_anchor.yaml", 0.09375
REJECT_STATUSES = (2, 3)
REJECT_REASONS = ("not an SCLV", "conjugate point")


@dataclass
class Op:
    name: str
    argv: list
    expect_status: tuple
    expect_verdict: str | None = None      # None: no report is written
    anchor: bool = False


@dataclass
class OpResult:
    op: Op
    wall_s: float
    cpu_s: float
    status: int | None
    peak_rss_mb: float
    stderr: str
    sidecar: dict
    write_bytes: int
    report: dict | None
    errors: list = field(default_factory=list)


def workload_ops(workload: str, seed: int, run_dir: Path) -> list[Op]:
    if workload == "bundled":
        return [Op(name, ["all", "--scenario", str(SCENARIOS / name), "--seed", str(seed)],
                   (status,), verdict, anchor=name == ANCHOR_SCENARIO)
                for name, (status, verdict) in BUNDLED.items()]
    paths = inputs.write(workload, seed, run_dir / "inputs")
    if workload == "finsler3d":
        return [Op(p.name, ["all", "--scenario", str(p)], (0,), "PASS") for p in paths]
    return [Op(p.name, ["gunther", "--scenario", str(p)], REJECT_STATUSES) for p in paths]


# ------------------------------------------------------------------ ops


def _wait(proc, timeout):
    """Reap proc, returning (status, rusage, end time); kill it on timeout."""
    box = {}

    def reap():
        _, status, usage = os.wait4(proc.pid, 0)
        box.update(end=time.perf_counter(), status=status, usage=usage)

    waiter = threading.Thread(target=reap)
    waiter.start()
    waiter.join(max(timeout, 0.0))
    if waiter.is_alive():
        proc.kill()
        waiter.join()
        box["status"] = None
    proc.returncode = -9 if box["status"] is None else os.waitstatus_to_exitcode(box["status"])
    return box["status"], box["usage"], box["end"]


def run_op(op: Op, op_id: int, trace: bool, run_dir: Path, deadline: float) -> OpResult:
    op_dir = run_dir / f"op{op_id:02d}"
    out_dir = op_dir / "out"
    op_dir.mkdir(parents=True)
    sidecar = op_dir / "sidecar.json"
    cmd = [sys.executable, str(HERE / "op.py"), str(sidecar), "1" if trace else "0",
           str(op_id), "--", *op.argv, "--out", str(out_dir)]
    with open(op_dir / "stdout", "w") as out, open(op_dir / "stderr", "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=CHILD_ENV, cwd=ROOT, stdout=out, stderr=err)
        status, usage, end = _wait(proc, deadline - time.monotonic())
    files = list(out_dir.glob("*")) if out_dir.is_dir() else []
    reports = [f for f in files if f.suffix == ".json"]
    res = OpResult(
        op=op, wall_s=end - start, cpu_s=usage.ru_utime + usage.ru_stime,
        status=None if status is None else os.waitstatus_to_exitcode(status),
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        stderr=(op_dir / "stderr").read_text(),
        sidecar=json.loads(sidecar.read_text()) if sidecar.exists() else {},
        write_bytes=sum(f.stat().st_size for f in files),
        report=json.loads(reports[0].read_text()) if len(reports) == 1 else None)
    res.errors = gate(res)
    shutil.rmtree(out_dir, ignore_errors=True)
    sidecar.unlink(missing_ok=True)
    return res


def gate(res: OpResult) -> list[str]:
    """Reasons the op's output is wrong; empty when it is correct."""
    op, errors = res.op, []
    if res.status is None:
        return ["killed: run time budget exhausted"]
    if "Traceback" in res.stderr:
        errors.append("ended in a traceback")
    if res.status not in op.expect_status:
        errors.append(f"exit status {res.status}, expected {op.expect_status}")
    if op.expect_verdict is None:
        if not any(reason in res.stderr for reason in REJECT_REASONS):
            errors.append(f"rejection message names none of {REJECT_REASONS}")
        return errors
    rep = res.report
    if rep is None:
        return errors + ["no report written"]
    if rep.get("verdict") != op.expect_verdict:
        errors.append(f"verdict {rep.get('verdict')}, expected {op.expect_verdict}")
    if op.anchor:
        row = rep["checks"]["bg"]["results"][0]
        if not abs(row["margin"] - ANCHOR_MARGIN) <= row["tol"]:
            errors.append(f"bg margin {row['margin']!r} misses {ANCHOR_MARGIN} "
                          f"by more than {row['tol']:.3g}")
    oracle = rep.get("volume_oracle")
    if oracle and oracle["verdict"] != "SKIPPED" and not oracle["rel_diff"] < oracle["tolerance"]:
        errors.append(f"oracle rel_diff {oracle['rel_diff']!r} >= {oracle['tolerance']}")
    return errors


def run_pass(ops, trace, run_dir, deadline, results):
    pass_results = []
    for op in ops:
        res = run_op(op, len(results), trace, run_dir, deadline)
        results.append(res)
        pass_results.append(res)
        if res.status is None:
            break
    return pass_results


def setup_probe() -> float:
    """Seconds a fresh interpreter takes to import lfgeom.cli."""
    code = ("from time import perf_counter; t = perf_counter(); import lfgeom.cli; "
            "print(perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", code], env=CHILD_ENV, cwd=ROOT,
                          capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout)


# -------------------------------------------------------------- metrics


def end_to_end(passes, results, setup_samples) -> dict:
    walls = [[r.wall_s for r in p] for p in passes]
    attempted = len(results)
    return {
        "wall_s": statistics.median(sum(w) for w in walls),
        "op_s_p50": statistics.median(statistics.median(w) for w in walls),
        "op_s_max": statistics.median(max(w) for w in walls),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": max(r.peak_rss_mb for r in results),
        "pass_ratio": sum(not r.errors for r in results) / attempted,
    }


BUCKETS = (("b1", 1), ("b64", 64), ("b512", 512))
FLOW_SPANS = ("geodesics.radial_flow", "geodesics.integrate_geodesic")
CHECK_SPANS = {"comparison.bishop_gromov_check": "bg", "comparison.gunther_check": "gunther",
               "comparison.bg_infinity_check": "bg_inf", "comparison.ball_bound_check": "ball"}
TOTAL_S = {  # span -> metric holding its summed duration
    "models.fundamental_tensor": "models.fundamental_tensor_s",
    "curvature.riemann_matrix": "curvature.riemann_s",
    "curvature.weight_along": "curvature.weight_along_s",
    "geodesics.radial_flow": "geodesics.radial_flow_s",
    "geodesics.integrate_geodesic": "geodesics.integrate_geodesic_s",
    "geodesics.find_validity_times": "geodesics.find_validity_s",
    "jacobi.variational_paths": "jacobi.variational_paths_s",
    "jacobi.scalars_for_paths": "jacobi.scalars_for_paths_s",
    "jacobi.sample_all": "jacobi.sample_all_s",
    "jacobi.riccati_quantities": "jacobi.riccati_s",
    "comparison.build_quadrature": "comparison.build_quadrature_s",
    "comparison.build_sclv_data": "comparison.build_sclv_data_s",
    "comparison.coordinate_volume": "comparison.oracle_s",
    "scenario.load_scenario": "scenario.load_s",
    "cli.main": "cli.main_s",
    **{span: f"comparison.check_s.{name}" for span, name in CHECK_SPANS.items()},
}
CALLS = {"models.fundamental_tensor": "models.fundamental_tensor_calls",
         "curvature.riemann_matrix": "curvature.riemann_calls",
         "geodesics.radial_flow": "geodesics.radial_flow_calls",
         "jacobi.variational_paths": "jacobi.variational_paths_calls"}


def _bucket(batch):
    for name, top in BUCKETS:
        if batch <= top:
            return name
    return "big"


def per_layer(results, names) -> dict:
    """Per-layer metrics of one traced pass, summed over its ops."""
    m = dict.fromkeys(names, 0.0)
    incl = {}      # connection bucket -> (inclusive seconds, points)
    sclv_builds = fan_flows = 0
    for res in results:
        jets = res.sidecar.get("jets", {})
        m["jets.mul_calls"] += jets.get("mul_calls", 0)
        m["jets.mul_pairs"] += jets.get("mul_pairs", 0)
        m["jets.mul_s"] += jets.get("mul_s", 0.0)
        m["cli.write_bytes"] += res.write_bytes
        spans = res.sidecar.get("spans", [])
        in_flow = [False] * len(spans)
        in_sclv = [False] * len(spans)
        for i, (name, t0, t1, parent, self_s, attrs) in enumerate(spans):
            if parent >= 0:   # parents precede their children
                pname = spans[parent][0]
                in_flow[i] = in_flow[parent] or pname in FLOW_SPANS
                in_sclv[i] = in_sclv[parent] or pname == "comparison.build_sclv_data"
            dur = t1 - t0
            if name in TOTAL_S:
                m[TOTAL_S[name]] += dur
            if name in CALLS:
                m[CALLS[name]] += 1
            if name == "connection.eval_connection":
                m["geodesics.rhs_calls"] += in_flow[i]
                if attrs["order"] in (3, 4):
                    key = f"o{attrs['order']}.{_bucket(attrs['batch'])}"
                    m[f"connection.calls.{key}"] += 1
                    m[f"connection.self_s.{key}"] += self_s
                    s, pts = incl.get(key, (0.0, 0))
                    incl[key] = (s + dur, pts + attrs["batch"])
            elif name == "curvature.riemann_matrix":
                m["curvature.riemann_points"] += attrs["points"]
                m["curvature.riemann_self_s"] += self_s
            elif name in FLOW_SPANS and attrs:
                m["geodesics.accepted_steps"] += attrs["steps"]
                if name == "geodesics.radial_flow":
                    m["geodesics.segments"] += attrs["segments"]
                    m["geodesics.peels"] += attrs["peels"]
                    m["geodesics.solver_failures"] += attrs["solver_failures"]
                    fan_flows += in_sclv[i]
            elif name == "comparison.build_sclv_data":
                sclv_builds += 1

    def per_call(key, scale, by_points=False):
        s, pts = incl.get(key, (0.0, 0))
        count = pts if by_points else m[f"connection.calls.{key}"]
        return scale * s / count if count else 0.0

    m["connection.ms_per_call.o3.b1"] = per_call("o3.b1", 1e3)
    m["connection.ms_per_call.o4.b1"] = per_call("o4.b1", 1e3)
    m["connection.us_per_point.o4.big"] = per_call("o4.big", 1e6, by_points=True)
    if m["geodesics.rhs_calls"]:
        m["geodesics.steps_per_rhs"] = m["geodesics.accepted_steps"] / m["geodesics.rhs_calls"]
    if sclv_builds:
        m["comparison.fan_flows_per_sclv"] = fan_flows / sclv_builds
    return m


def write_spans(results, path: Path):
    with path.open("w") as fh:
        for res in results:
            for name, t0, t1, parent, self_s, attrs in res.sidecar.get("spans", []):
                fh.write(json.dumps({"op": res.sidecar["op"], "name": name, "start": t0,
                                     "end": t1, "parent": parent, "self_s": self_s,
                                     "attrs": attrs}) + "\n")


# ----------------------------------------------------------- provenance


def provenance() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "blas_threads": BLAS_THREADS,
        "git_commit": commit,
        "src_lines": sum(len(p.read_bytes().splitlines())
                         for p in sorted((SRC / "lfgeom").glob("*.py"))),
    }


# ----------------------------------------------------------------- main


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("bundled", "finsler3d", "reject"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=PASS_BUDGET_S)
    p.add_argument("--trace", choices=("0", "1"), default="1")
    args = p.parse_args(argv)

    missing = [str(f) for f in [SRC / "lfgeom" / "cli.py", ROOT / "BENCHMARK.json",
                                *(SCENARIOS / name for name in BUNDLED)] if not f.is_file()]
    if missing:
        print(f"not an lfgeom checkout; missing: {', '.join(missing)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    e2e_names = [m["name"] for m in spec["end_to_end"]]
    layer_names = [m["name"] for m in spec["per_layer"]]

    # set-up: bytecode for the package, fresh run directory, inputs, import timings
    compileall.compile_dir(SRC / "lfgeom", quiet=1)
    run_dir = WORK / args.workload
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    ops = workload_ops(args.workload, args.seed, run_dir)
    prov = provenance()
    setup = [setup_probe() for _ in range(SETUP_SAMPLES)]
    deadline = time.monotonic() + RUN_BUDGET_S
    results, passes, t_start = [], [], time.monotonic()

    while True:
        t_pass = time.monotonic()
        passes.append(run_pass(ops, False, run_dir, deadline, results))
        now = time.monotonic()
        if results[-1].status is None or now + (now - t_pass) - t_start > args.seconds:
            break
    metrics = end_to_end(passes, results, setup)
    wanted = e2e_names
    if args.trace == "1":
        traced = run_pass(ops, True, run_dir, deadline, results)
        metrics.update(per_layer(traced, layer_names))
        metrics["trace.overhead_s"] = sum(r.wall_s for r in traced) - metrics["wall_s"]
        write_spans(traced, run_dir / "spans.jsonl")
        wanted = layer_names

    if not set(wanted) <= set(metrics):
        raise RuntimeError(f"metrics missing from the run: {sorted(set(wanted) - set(metrics))}")
    failed = [r for r in results if r.errors]
    summary = {
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in wanted},
    }
    (run_dir / "result.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "passes": len(passes), "provenance": prov,
        **summary, "metrics": {name: {"value": metrics[name], "unit": units[name]}
                               for name in e2e_names + layer_names if name in metrics},
        "ops": [{"op": r.op.name, "wall_s": r.wall_s, "cpu_s": r.cpu_s, "status": r.status,
                 "peak_rss_mb": r.peak_rss_mb, "errors": r.errors} for r in results],
    }, indent=1) + "\n")

    print("provenance: " + " ".join(f"{k}={v}" for k, v in prov.items()))
    for r in failed:
        print(f"FAILED {r.op.name}: {'; '.join(r.errors)}")
    for name in e2e_names + layer_names:
        if name in metrics:
            print(f"{name} = {metrics[name]:.6g} {units[name]}")
    print(json.dumps(summary))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
