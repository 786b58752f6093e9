#!/usr/bin/env python3
"""Run the full machine-verification battery at chosen parameters and print
a one-line verdict per check (annihilating operators, printed generators,
coefficient tables), with the wall time of the R-series build and of each
group of checks.

    python scripts/verify_structure.py --n 4 --m 2 --order 12
"""

import argparse
import json
import sys
import time

from wishart_roots.hgm import m2_paper_products_extraction, printed_m2_table
from wishart_roots.operators import verify_printed, verify_theorem1, verify_theorem2
from wishart_roots.series_engine import build_R_series


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=4)
    ap.add_argument("--m", type=int, default=2)
    ap.add_argument("--order", type=int, default=12)
    args = ap.parse_args()

    t0 = time.perf_counter()
    R = build_R_series(args.n, args.m, args.order)
    print(f"R series built in {time.perf_counter() - t0:.3f}s "
          f"(n={args.n}, m={args.m}, order={args.order})")

    checks = [verify_theorem1, verify_theorem2]
    if args.m in (2, 3):
        checks.append(verify_printed)
    ok = True
    for check in checks:
        t0 = time.perf_counter()
        reports = check(args.n, args.m, args.order, R)
        print(f"{check.__name__} ({time.perf_counter() - t0:.3f}s)")
        for r in reports:
            verdict = "exact zero" if r["pass"] else f"{r['max_residual_terms']} residual terms"
            print(f"  {r['check']:32s} {verdict}")
            ok = ok and r["pass"]

    if args.m == 2:
        t0 = time.perf_counter()
        got_r, got_dx = m2_paper_products_extraction(args.n)
        exp_r, exp_dx = printed_m2_table(args.n)
        tr = all(a == b for a, b in zip(got_r, exp_r))
        td = all(a == b for a, b in zip(got_dx, exp_dx))
        print(f"rank-8 coefficient tables ({time.perf_counter() - t0:.3f}s)")
        print(f"  {'rank8_table_R':32s} {'exact match' if tr else 'MISMATCH'}")
        print(f"  {'rank8_table_DxR':32s} {'exact match' if td else 'MISMATCH'}")
        ok = ok and tr and td

    print(json.dumps({"pass": ok}))
    return 0 if ok else 3


if __name__ == "__main__":
    sys.exit(main())
