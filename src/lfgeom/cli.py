"""Command-line front door.

Subcommands: validate-model | curvature | geodesic | jacobi | bg |
gunther | bg-inf | ball | all.  Every run takes a scenario file and
writes a versioned JSON report (``schema: 1``) plus CSV plot data into
``--out``.  Exit status: 0 when all verdicts are PASS or
CONDITIONAL-PASS, 1 on any FAIL, 2 on configuration errors, 3 on
numerical aborts (integrator failure, no admissible parameters, an
``ArithmeticError`` such as a degenerate metric).

Flags may also be set by environment variables with the ``LFGEOM_``
prefix (``LFGEOM_SCENARIO``, ``LFGEOM_OUT``, ``LFGEOM_SEED``,
``LFGEOM_RESOLUTION_SCALE``); explicit flags win.  Reports are
byte-identical across runs: no timestamps are embedded.

The four checks are the rows of one table, ``CHECKS``: each maps a
``ChecksConfig`` field to its ``comparison`` function, whose keyword
names are that config's field names.  Every CSV block is a 2-D float
array, written with ``%.17g`` cells.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import comparison as cmp
from . import models
from .curvature import ric_N
from .geodesics import radial_flow
from .jacobi import gunther_f, jacobi_variational, riccati_quantities, weighted_density
from .scenario import ConfigError, Scenario, load_scenario, scenario_fields

SCHEMA = 1
# check name (a ChecksConfig field) -> its function in `comparison`, looked up
# at call time so that a wrapper installed on the module (bench/tracer.py) sees it
CHECKS = {"bg": "bishop_gromov_check", "gunther": "gunther_check",
          "bg_inf": "bg_infinity_check", "ball": "ball_bound_check"}
SUBCOMMANDS = ("validate-model", "curvature", "geodesic", "jacobi",
               *(name.replace("_", "-") for name in CHECKS), "all")
_ENV_PREFIX = "LFGEOM_"
VALIDATE_SAMPLES = 200
VALIDATE_ROUNDS = 10       # draws of 2 * VALIDATE_SAMPLES candidates before validate-model gives up
ORACLE_TOL = 1e-4
CSV_CHUNK = 256            # CSV rows formatted per write


def _env_default(name, cast, fallback):
    var = _ENV_PREFIX + name.upper().replace("-", "_")
    raw = os.environ.get(var)
    if raw is None:
        return fallback
    try:
        return cast(raw)
    except ValueError:
        raise ConfigError(f"{var}: cannot parse {raw!r}")


def _build_parser():
    p = argparse.ArgumentParser(
        prog="lfgeom",
        description="Lorentz-Finsler comparison-geometry checks")
    sub = p.add_subparsers(dest="command", required=True)
    for name in SUBCOMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--scenario",
                        default=_env_default("scenario", str, None))
        sp.add_argument("--out", default=_env_default("out", str, "."))
        sp.add_argument("--seed", type=int,
                        default=_env_default("seed", int, 0))
        sp.add_argument("--resolution-scale", type=float,
                        default=_env_default("resolution-scale", float, 1.0))
    return p


# ------------------------------------------------------------------ output


def _write_json(out_dir: Path, stem: str, payload: dict) -> Path:
    path = out_dir / f"{stem}.json"
    path.write_text(json.dumps(payload, sort_keys=True, indent=2,
                               default=float) + "\n")
    return path


def _write_csv(out_dir: Path, stem: str, header, rows) -> Path:
    """The header, then one line of %.17g cells per row of the array rows (a
    1-D rows is one column): the bytes of ``np.savetxt(fh, rows, fmt="%.17g",
    delimiter=",", newline="\\r\\n")``, formatted CSV_CHUNK rows per ``%``."""
    rows = np.asarray(rows)
    rows = rows[:, None] if rows.ndim == 1 else rows
    line = ",".join(["%.17g"] * rows.shape[1]) + "\r\n"
    path = out_dir / f"{stem}.csv"
    with path.open("w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for k in range(0, len(rows), CSV_CHUNK):
            chunk = rows[k:k + CSV_CHUNK]
            fh.write(line * len(chunk) % tuple(chunk.ravel().tolist()))
    return path


def _report_shell(scen: Scenario, command: str, args) -> dict:
    return {
        "schema": SCHEMA,
        "command": command,
        "scenario": scen.name,
        "model": scenario_fields(scen.model),
        "sclv": scenario_fields(scen.sclv),
        "numerics": {**scenario_fields(scen.numerics),
                     "resolution_scale": args.resolution_scale,
                     "seed": args.seed},
    }


# ------------------------------------------------------------- subcommands

_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _pcg64_seed(seed):
    """(state, increment) of numpy's ``PCG64(SeedSequence(seed))``, seed a Python int."""
    if seed < 0:
        raise ValueError("expected non-negative integer")
    words = [seed & _M32]                   # the seed's 32-bit words, low first
    while seed := seed >> 32:
        words.append(seed & _M32)

    def hasher(const, mult):                # SeedSequence's hashmix: its multiplier moves on
        def hashmix(value):
            nonlocal const
            value ^= const
            const = const * mult & _M32
            value = value * const & _M32
            return value ^ value >> 16
        return hashmix

    def mix(x, y):
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return r ^ r >> 16

    hashmix = hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(w) for w in (words + [0, 0, 0])[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    out = list(map(hasher(0x8B51F9DD, 0x58F38DED), pool * 2))   # generate_state(4, uint64)
    u64 = [out[2 * j] | out[2 * j + 1] << 32 for j in range(4)]
    inc = ((u64[2] << 64 | u64[3]) << 1 | 1) & _M128
    return ((inc + (u64[0] << 64 | u64[1])) * _PCG_MULT + inc) & _M128, inc


def _uniform_rounds(seed, lo, hi, rows, rounds):
    """Up to `rounds` arrays (rows, len(lo)): successive
    ``numpy.random.default_rng(seed).uniform(lo, hi, size=(rows, len(lo)))``
    draws, bit for bit, without importing ``numpy.random``.

    A port of numpy's ``SeedSequence`` (entropy pool and ``generate_state``,
    numpy/random/bit_generator.pyx), of its PCG64 generator -- a 128-bit LCG
    with the XSL-RR output (O'Neill, HMC-CS-2014-0905, 2014;
    numpy/random/src/pcg64) -- and of ``Generator.uniform``: lo + (hi - lo) u
    with u = (64-bit word >> 11) 2^-53, filled in C order.  The 128-bit
    arithmetic is on Python ints.  numpy's license, under which this port is
    distributed (numpy/random is Copyright (c) 2019 Kevin Sheppard, dual
    NCSA / 3-clause BSD; the 3-clause BSD applies here):

        Copyright (c) 2005-2025, NumPy Developers.
        All rights reserved.

        Redistribution and use in source and binary forms, with or without
        modification, are permitted provided that the following conditions
        are met:

        * Redistributions of source code must retain the above copyright
          notice, this list of conditions and the following disclaimer.

        * Redistributions in binary form must reproduce the above
          copyright notice, this list of conditions and the following
          disclaimer in the documentation and/or other materials provided
          with the distribution.

        * Neither the name of the NumPy Developers nor the names of any
          contributors may be used to endorse or promote products derived
          from this software without specific prior written permission.

        THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
        "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
        LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
        A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
        OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
        SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
        LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
        DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
        THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
        (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
        OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
    """
    state, inc = _pcg64_seed(seed)
    span = hi - lo
    for _ in range(rounds):
        u = np.empty(rows * len(lo))
        for k in range(u.size):
            state = (state * _PCG_MULT + inc) & _M128
            word, rot = ((state >> 64) ^ state) & _M64, state >> 122
            u[k] = (((word >> rot) | (word << (-rot & 63)) & _M64) >> 11) * 2.0**-53
        yield lo + span * u.reshape(rows, len(lo))


def _validate_model(scen: Scenario, args):
    m = scen.model.build()
    d, samples = m.dim, VALIDATE_SAMPLES
    box = min(1.0, 0.25 * min(min(-lo for lo in m.chart_lo),
                              min(hi for hi in m.chart_hi)))
    # candidate rows (x, spatial velocity, scale), drawn in blocks: the same
    # doubles, in the same order, as one candidate at a time
    lo = np.concatenate([np.full(d, -box), np.full(m.n, -0.7), [0.5]])
    hi = np.concatenate([np.full(d, box), np.full(m.n, 0.7), [2.0]])
    xs, vs = np.empty((0, d)), np.empty((0, d))
    for cand in _uniform_rounds(args.seed, lo, hi, 2 * samples, VALIDATE_ROUNDS):
        x = cand[:, :d]
        v = np.concatenate([np.ones((len(cand), 1)), cand[:, d:-1]], axis=1) * cand[:, -1:]
        keep = models.classify(m, x, v) == "future-timelike"
        xs, vs = np.vstack([xs, x[keep]])[:samples], np.vstack([vs, v[keep]])[:samples]
        if len(xs) == samples:
            break
    else:
        raise ConfigError(
            f"validate-model: {len(xs)} of {VALIDATE_ROUNDS * 2 * samples} sampled "
            f"velocities are future-timelike, fewer than the {samples} needed; "
            f"the sampling box holds almost no future-timelike velocity")

    s = 1.7
    L = models.lagrangian(m, xs, vs)
    Ls = models.lagrangian(m, xs, s * vs)
    hom_L = float(np.max(np.abs(Ls - s**2 * L) / np.maximum(np.abs(L), 1e-12)))
    psi = models.weight(m, xs, vs)
    hom_psi = float(np.max(np.abs(models.weight(m, xs, s * vs) - psi)))
    g = models.fundamental_tensor(m, xs, vs)
    hom_g = float(np.max(np.abs(models.fundamental_tensor(m, xs, s * vs) - g)))
    gvv = np.einsum("...a,...ab,...b->...", vs, g, vs)
    metric_id = float(np.max(np.abs(gvv - L)))

    eig = np.linalg.eigvalsh(g)
    signature_ok = bool(np.all(np.sum(eig < 0, axis=-1) == 1))
    min_margin = float(np.min(np.abs(eig)))
    orientation_ok = bool(
        models.classify(m, np.zeros(d), np.eye(d)[0]) == "future-timelike")

    tol = 1e-9
    ok = (hom_L < tol and hom_psi < tol and hom_g < 1e-8
          and metric_id < 1e-9 and signature_ok and orientation_ok)
    return {
        "verdict": "PASS" if ok else "FAIL",
        "samples": samples,
        "tolerance": tol,
        "homogeneity": {"L_deg2_rel": hom_L, "psi_deg0_abs": hom_psi,
                        "g_deg0_abs": hom_g},
        "metric_identity_gvv_minus_L": metric_id,
        "signature": {"ok": signature_ok, "min_eig_margin": min_margin},
        "orientation_ok": orientation_ok,
    }, []


def _center_flow(scen: Scenario):
    """The patch-center geodesic alone: a one-direction, post-scanned order-3 flow."""
    m, sclv = scen.model.build(), scen.sclv.build()
    return radial_flow(m, sclv.apex, cmp.center_direction(m, sclv)[None], sclv.cut,
                       rtol=scen.numerics.ode_rtol, atol=scen.numerics.ode_atol, post_scan=True)


def _center_path(scen: Scenario):
    """The patch-center Jacobi path, whose one order-4 flow also carries the geodesic."""
    m, sclv = scen.model.build(), scen.sclv.build()
    return jacobi_variational(m, sclv.apex, cmp.center_direction(m, sclv), sclv.cut,
                              rtol=scen.numerics.ode_rtol, atol=scen.numerics.ode_atol)


def _geodesic_rows(scen: Scenario, flow, i):
    """Geodesic block and CSV rows of direction i of a flow towards the cut."""
    m = flow.model
    t_end = float(flow.t_reached[i])
    ts = np.linspace(0.0, t_end, 129)
    st = flow.eval(i, ts)
    xs, vel = st["eta"], st["etadot"]
    L = models.lagrangian(m, xs, vel)
    rows = np.column_stack([ts, xs, vel, L + 1.0])
    header = (["t"] + [f"x{k}" for k in range(m.dim)]
              + [f"v{k}" for k in range(m.dim)] + ["L_drift"])
    report = {"verdict": "PASS" if t_end >= flow.t_target else "FAIL",
              "t_end": t_end, "status": flow.exit_reason[i] or "completed",
              "max_L_drift": float(np.max(np.abs(L + 1.0))),
              "ode_rtol": scen.numerics.ode_rtol,
              "ode_atol": scen.numerics.ode_atol}
    return report, [(header, rows)]


def _radial_scalars(path):
    """Curvature/jacobi data: expansion scalars at 64 times along the center path."""
    return riccati_quantities(path, np.linspace(path.t_end / 64, path.t_end, 64))


def _flag_params(scen: Scenario, n):
    """(N, c_flag): the bg check's N or n + 2, and the Günther c clamped to >= 0, or 0."""
    ck = scen.checks
    N = ck.bg.N if ck.bg else n + 2.0
    c = ck.gunther.c if ck.gunther and ck.gunther.c is not None else 0.0
    return N, max(c, 0.0)


def _curvature_cmd(scen: Scenario, m, sc):
    N, _ = _flag_params(scen, m.n)
    ricN = ric_N(sc.ric, sc.dpsi, sc.d2psi, N, m.n)
    header = ["t", "ric", "ric_inf", f"ric_N_{N:g}", "psi", "dpsi", "d2psi"]
    rows = np.column_stack([sc.ts, sc.ric, sc.ric + sc.d2psi, ricN, sc.psi, sc.dpsi, sc.d2psi])
    report = {"verdict": "PASS", "N": float(N), "samples": len(rows),
              "inf_ric_N": float(np.min(ricN)),
              "ode_rtol": scen.numerics.ode_rtol,
              "ode_atol": scen.numerics.ode_atol}
    return report, [(header, rows)]


def _jacobi_cmd(scen: Scenario, m, sc):
    N, c_flag = _flag_params(scen, m.n)
    header = ["t", "detA", "lambda", "h", "f"]
    rows = np.column_stack([sc.ts, sc.detA, sc.lam, weighted_density(sc, N)[0],
                            gunther_f(sc, c_flag)])
    report = {"verdict": "PASS", "N": float(N), "c_flag": float(c_flag),
              "samples": len(rows), "min_detA": float(np.min(sc.detA)),
              "ode_rtol": scen.numerics.ode_rtol,
              "ode_atol": scen.numerics.ode_atol}
    return report, [(header, rows)]


def _sclv_data(scen: Scenario, args):
    """The SCLV data, with --resolution-scale applied to the direction rule and
    to the Chebyshev node count."""
    f, num = args.resolution_scale, scen.numerics
    return cmp.build_sclv_data(scen.model.build(), scen.sclv.build(),
                               scale=num.quad_scale * f,
                               t_nodes=max(8, int(round(cmp.T_NODES * f))),
                               rtol=num.ode_rtol, atol=num.ode_atol)


def _run_check(name, scen: Scenario, data):
    return getattr(cmp, CHECKS[name])(data, **vars(getattr(scen.checks, name)))


def _oracle_entry(data):
    m = data.model
    if m.n > 2:
        return {"verdict": "SKIPPED", "reason": "oracle covers n <= 2"}
    vol, err = cmp.sclv_volume(data, 1.0)
    direct, direct_err = cmp.coordinate_volume(m, data.sclv)
    rel = abs(direct - vol) / vol
    return {"verdict": "PASS" if rel < ORACLE_TOL else "FAIL",
            "polar": vol, "polar_t_error": err, "coordinate": direct,
            "coordinate_error": direct_err, "rel_diff": rel, "tolerance": ORACLE_TOL}


def _diagnostic_rows(data, scen: Scenario):
    N, c_flag = _flag_params(scen, data.model.n)
    header = ["direction", "t", "detA", "lambda", "ric", "psi", "dpsi",
              "d2psi", "h", "f"]
    sc = data.scalars
    direction, ts = np.meshgrid(np.arange(len(sc.detA)), sc.ts, indexing="ij")
    cols = (direction, ts, sc.detA, sc.lam, sc.ric, sc.psi, sc.dpsi, sc.d2psi,
            weighted_density(sc, N)[0], gunther_f(sc, c_flag))
    return header, np.column_stack([np.ravel(c) for c in cols])


def run(args) -> int:
    if args.scenario is None:
        raise ConfigError("--scenario is required (or set LFGEOM_SCENARIO)")
    if args.resolution_scale <= 0:
        raise ConfigError("--resolution-scale must be positive")
    scen = load_scenario(args.scenario)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{scen.name}-{args.command}"
    report = _report_shell(scen, args.command, args)
    csv_blocks = []

    if args.command == "validate-model":
        body, csv_blocks = _validate_model(scen, args)
        report["validate_model"] = body
    elif args.command == "geodesic":
        body, csv_blocks = _geodesic_rows(scen, _center_flow(scen), 0)
        report["geodesic"] = body
    elif args.command in ("curvature", "jacobi"):
        path = _center_path(scen)
        cmd = _curvature_cmd if args.command == "curvature" else _jacobi_cmd
        body, csv_blocks = cmd(scen, path.model, _radial_scalars(path))
        report[args.command] = body
    elif (key := args.command.replace("-", "_")) in CHECKS:
        if getattr(scen.checks, key) is None:
            raise ConfigError(f"scenario {scen.name} does not configure "
                              f"the {args.command} check")
        data = _sclv_data(scen, args)
        report["checks"] = {key: _run_check(key, scen, data).to_dict()}
        csv_blocks = [_diagnostic_rows(data, scen)]
    elif args.command == "all":
        body, _ = _validate_model(scen, args)
        report["validate_model"] = body
        requested = scen.checks.requested()
        if requested:   # the SCLV fan's center row carries all three blocks
            data = _sclv_data(scen, args)
            path = data.center
        else:
            path = _center_path(scen)
        report["geodesic"], _ = _geodesic_rows(scen, path.flow, path.index)
        sc = _radial_scalars(path)
        report["curvature"], _ = _curvature_cmd(scen, path.model, sc)
        report["jacobi"], jac_csv = _jacobi_cmd(scen, path.model, sc)
        if requested:
            report["checks"] = {key: _run_check(key, scen, data).to_dict()
                                for key in requested}
            if scen.numerics.oracle:
                report["volume_oracle"] = _oracle_entry(data)
            csv_blocks = [_diagnostic_rows(data, scen)]
        else:
            csv_blocks = jac_csv

    verdicts = _collect_verdicts(report)
    report["verdict"] = ("FAIL" if "FAIL" in verdicts else
                         "CONDITIONAL-PASS" if "CONDITIONAL-PASS" in verdicts
                         else "PASS")
    json_path = _write_json(out_dir, stem, report)
    for i, (header, rows) in enumerate(csv_blocks):
        suffix = stem if len(csv_blocks) == 1 else f"{stem}-{i}"
        _write_csv(out_dir, suffix, header, rows)
    print(f"{scen.name} {args.command}: {report['verdict']} -> {json_path}")
    return 0 if report["verdict"] != "FAIL" else 1


def _collect_verdicts(node):
    out = []
    if isinstance(node, dict):
        for k, v in node.items():
            if k == "verdict" and isinstance(v, str):
                out.append(v)
            else:
                out.extend(_collect_verdicts(v))
    elif isinstance(node, list):
        for v in node:
            out.extend(_collect_verdicts(v))
    return out


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return run(args)
    except np.linalg.LinAlgError as exc:  # a ValueError, but a numerical breakdown
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # ConfigError included
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, ArithmeticError) as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
