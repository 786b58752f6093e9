#!/usr/bin/env python3
"""Tabulate the largest-root density along x through every evaluation route
and print the worst pairwise relative spread; a quick end-to-end agreement
experiment.

    python scripts/cross_route_table.py --n 4 --m 2 --lambda 2,1
"""

import argparse
import sys

from wishart_roots.distribution import EvalConfig, WishartParams, pdf


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=4)
    ap.add_argument("--m", type=int, default=2)
    ap.add_argument("--lambda", dest="lambdas", default="2,1")
    ap.add_argument("--x-min", type=float, default=0.5)
    ap.add_argument("--x-max", type=float, default=20.0)
    ap.add_argument("--points", type=int, default=16)
    args = ap.parse_args()

    lams = [float(t) for t in args.lambdas.split(",")]
    params = WishartParams(args.n, args.m, lams)
    methods = ["quadrature", "series", "conjecture", "hgm"]
    order = 18 if args.m <= 2 else 12
    cfgs = {mth: EvalConfig(method=mth, series_order=order) for mth in methods}

    print("x," + ",".join(methods) + ",max_rel_spread")
    worst = 0.0
    for i in range(args.points):
        x = args.x_min + i * (args.x_max - args.x_min) / (args.points - 1)
        vals = []
        for mth in methods:
            try:
                vals.append(pdf(params, x, cfgs[mth]))
            except (ValueError, ArithmeticError):  # unsupported, or refused
                vals.append(float("nan"))
        finite = [v for v in vals if v == v]
        spread = (max(finite) - min(finite)) / max(abs(max(finite)), 1e-300)
        worst = max(worst, spread)
        print(f"{x:.17g}," + ",".join(f"{v:.17g}" for v in vals) + f",{spread:.3e}")
    print(f"# worst relative spread across routes: {worst:.3e}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
