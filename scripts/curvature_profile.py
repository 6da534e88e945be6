#!/usr/bin/env python3
"""Profile curvature along radial geodesics of a library model.

For a fan of future-timelike unit directions at a chosen apex this prints,
per direction, the flag-curvature range seen by the transported frame, the
Ricci scalar at the apex, and the first conjugate point (if any) out to
--t-max.  Useful for choosing SCLV cuts that stay inside the conjugate
radius and for eyeballing which comparison constants a model can certify.

Usage:
    python3 scripts/curvature_profile.py --model einstein_static --n 2 \
        --param radius=1.0 --apex 0 0.5 0 --radius 0.375 --t-max 6
"""

import argparse
import sys

import numpy as np

from lfgeom import models
from lfgeom.comparison import SCLVSpec, build_sclv_data, radial_bound_scan
from lfgeom.geodesics import find_validity_times
from lfgeom.jacobi import conjugate_scan


def parse_params(items):
    out = {}
    for item in items or []:
        key, _, val = item.partition("=")
        try:
            out[key] = float(val)
        except ValueError:
            out[key] = val
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--model", default="minkowski")
    ap.add_argument("--n", type=int, default=2)
    ap.add_argument("--param", action="append", metavar="KEY=VAL")
    ap.add_argument("--apex", type=float, nargs="+", default=None)
    ap.add_argument("--radius", type=float, default=0.4,
                    help="direction-patch radius in the chart")
    ap.add_argument("--t-max", type=float, default=4.0)
    ap.add_argument("--ndir", type=int, default=8)
    args = ap.parse_args(argv)

    m = models.model_library(args.model, args.n, **parse_params(args.param))
    apex = np.array(args.apex if args.apex is not None
                    else [0.0] * (args.n + 1))

    # A light scan first: curvature bounds over the whole fan, with the cut
    # capped so every direction stays valid and conjugate-free.
    scan, cut = None, args.t_max
    for _ in range(12):
        try:
            sclv = SCLVSpec(apex=apex, radius=args.radius, cut=cut)
            data = build_sclv_data(m, sclv, scale=0.5, t_nodes=24)
            scan = radial_bound_scan(data)
            break
        except ValueError:
            cut *= 0.75
    if scan is None:
        print("bound scan failed even at small cuts", file=sys.stderr)

    print(f"model={args.model} n={args.n} params={parse_params(args.param)}")
    print(f"apex={apex.tolist()} patch radius={args.radius} "
          f"scan cut={cut:g} t_max={args.t_max}")
    if scan:
        print(f"flag curvature in [{scan['inf_flag']:+.6g}, "
              f"{scan['sup_flag']:+.6g}]  inf Ric_inf={scan['inf_ric_inf']:+.6g}")
        print(f"certifiable: gunther c={max(0.0, -scan['sup_flag']):.6g}  "
              f"bg-inf c={scan['inf_ric_inf'] / m.n:.6g}")

    angles = np.linspace(0.0, 2 * np.pi, args.ndir, endpoint=False)
    vs = []
    for k, phi in enumerate(angles):
        if args.n == 1:
            if k >= 2:
                break
            offs = np.array([args.radius * (1 if k == 0 else -1)])
        else:
            offs = np.zeros(args.n)
            offs[0] = args.radius * np.cos(phi)
            offs[1] = args.radius * np.sin(phi)
        w = np.concatenate([[1.0], offs])
        F = np.sqrt(-models.lagrangian(m, apex, w))
        vs.append(w / F)
    reach, _ = find_validity_times(m, apex, np.array(vs), args.t_max)

    print(f"\n{'dir':>3s} {'velocity':>32s} {'scanned to':>11s} "
          f"{'first conjugate t':>18s}")
    for k, v in enumerate(vs):
        t_hi = 0.999 * reach[k]
        conj = conjugate_scan(m, apex, v, t_hi)
        label = f"{conj[0]:.6g}" if len(conj) else f"none < {t_hi:.4g}"
        with np.printoptions(precision=4, suppress=True):
            print(f"{k:3d} {str(v):>32s} {t_hi:11.4g} {label:>18s}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
