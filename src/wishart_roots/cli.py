"""Command-line front end.

Subcommands: cdf, pdf, table, hgm, mc, verify.  Output is CSV (17
significant digits, header always) or JSON for verification reports.
Exit codes: 0 success, 1 usage error, 2 numeric failure, 3 verification
failure.  A JSON config file may supply defaults; flags override.  One
parser serves every call in a process.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import List, Sequence, Tuple

from . import distribution, h_integrals, hgm, mc_validator, operators
from .distribution import EvalConfig, WishartParams
from .series_engine import build_R_series

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2
EXIT_VERIFY = 3


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _parse_lambdas(text: str, m: int) -> List[float]:
    vals = [float(t) for t in text.split(",") if t.strip() != ""]
    if len(vals) != m:
        raise ValueError(f"expected {m} lambda values, got {len(vals)}")
    return vals


def _build_parser() -> Tuple[argparse.ArgumentParser, dict]:
    """The parser and its subcommands' parsers by name."""
    ap = argparse.ArgumentParser(
        prog="wishart-roots",
        description="Largest-root CDF/PDF of the noncentral complex Wishart "
        "distribution, with cross-checked evaluation routes.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, with_x=True):
        p.add_argument("--config", help="JSON file with default option values")
        p.add_argument("--n", type=int, required=True, help="degrees of freedom")
        p.add_argument("--m", type=int, required=True, help="matrix dimension")
        p.add_argument("--lambda", dest="lambdas", required=True,
                       help="comma-separated noncentrality eigenvalues")
        p.add_argument("--method", default="quadrature",
                       choices=["quadrature", "series", "conjecture", "hgm", "all"])
        p.add_argument("--order", type=int, default=None,
                       help="series truncation order (series method)")
        p.add_argument("--tol", type=float, default=1e-10)
        p.add_argument("--json", action="store_true", help="emit JSON instead of CSV")
        if with_x:
            p.add_argument("--x", type=float, required=True)

    p_cdf = sub.add_parser("cdf", help="CDF value at one abscissa")
    common(p_cdf)
    p_pdf = sub.add_parser("pdf", help="density value at one abscissa")
    common(p_pdf)

    p_tab = sub.add_parser("table", help="CSV table over an x grid")
    common(p_tab, with_x=False)
    p_tab.add_argument("--x-min", type=float, required=True)
    p_tab.add_argument("--x-max", type=float, required=True)
    p_tab.add_argument("--points", type=int, default=100)
    p_tab.add_argument("--what", default="pdf", choices=["pdf", "cdf"])

    p_hgm = sub.add_parser("hgm", help="Pfaffian trajectory dump (CSV)")
    common(p_hgm, with_x=False)
    p_hgm.add_argument("--x-min", type=float, default=0.5)
    p_hgm.add_argument("--x-max", type=float, required=True)
    p_hgm.add_argument("--points", type=int, default=50)

    p_mc = sub.add_parser("mc", help="Monte Carlo comparison against an analytic route")
    common(p_mc, with_x=False)
    p_mc.add_argument("--samples", type=int, default=100_000)
    p_mc.add_argument("--seed", type=int, default=20240801)
    p_mc.add_argument("--histogram", action="store_true",
                      help="emit the histogram/empirical-CDF CSV instead of the report")

    p_ver = sub.add_parser("verify", help="machine verification suites")
    p_ver.add_argument("--config", help="JSON file with default option values")
    p_ver.add_argument("target", choices=["recurrences", "operators", "theorem2",
                                          "printed", "all"])
    p_ver.add_argument("--n", type=int, default=4)
    p_ver.add_argument("--m", type=int, default=2)
    p_ver.add_argument("--order", type=int, default=12)
    return ap, sub.choices


@functools.lru_cache(maxsize=None)
def _parser() -> Tuple[argparse.ArgumentParser, dict]:
    """The process's one parser, built on the first call rather than at
    import; parsing never changes it, so it serves every call of ``main``."""
    return _build_parser()


def _config_path(argv: Sequence[str]) -> str | None:
    """The value of the last --config on the command line (``--config PATH``,
    ``--config=PATH`` or an abbreviation, as argparse reads them), or None."""
    path = None
    for i, arg in enumerate(argv):
        name, eq, value = arg.partition("=")
        if len(name) > 2 and "--config".startswith(name):
            path = value if eq else argv[i + 1] if i + 1 < len(argv) else path
    return path


def _parse_args(argv: Sequence[str], ap: argparse.ArgumentParser, commands: dict):
    """Parse ``argv``; a --config file's values enter as options right after
    the subcommand, so argparse converts them by the options' types, flags
    later on the line override them, and required options may come from the
    file.  Keys that name no option are ignored."""
    path = _config_path(argv)
    sub = commands.get(argv[0]) if argv else None
    if path is None or sub is None:
        return ap.parse_args(argv)
    try:
        with open(path) as fh:
            values = json.load(fh)
        if not isinstance(values, dict):
            raise ValueError("not a JSON object")
    except (OSError, ValueError) as exc:
        sub.error(f"--config {path}: {exc}")
    values = {k.replace("-", "_"): v for k, v in values.items()}
    options = []
    for action in sub._actions:
        value, flag = values.get(action.dest), action.nargs == 0  # flag: store_true
        if value is None or not action.option_strings or action.dest in ("help", "config"):
            continue
        if flag != isinstance(value, bool) or not isinstance(value, (str, int, float)):
            sub.error(f"--config {path}: bad value {value!r} for {action.dest}")
        if not flag:
            options.append(f"{action.option_strings[0]}={value}")
        elif value:
            options.append(action.option_strings[0])
    return ap.parse_args([argv[0], *options, *argv[1:]])


def _check_options(args) -> None:
    """Refuse a --tol that is not a positive finite number and a negative
    --order before any route runs."""
    tol = getattr(args, "tol", 1.0)
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"--tol must be a positive finite number, got {tol}")
    if args.order is not None and args.order < 0:
        raise ValueError(f"--order must be >= 0, got {args.order}")


def _cfg_from_args(args, method: str) -> EvalConfig:
    cfg = EvalConfig(method=method)
    if args.order is not None:
        cfg.series_order = args.order
    elif args.m >= 3:
        cfg.series_order = 12
    return cfg


def _eval_one(kind: str, params: WishartParams, x, args, method: str):
    cfg = _cfg_from_args(args, method)
    fn = distribution.cdf if kind == "cdf" else distribution.pdf
    return fn(params, x, cfg)


def _err_estimate(kind: str, params: WishartParams, x: float, args, method: str, value: float) -> float:
    """Crude error estimate: the distance to a second route, quadrature for
    every other route and conjecture for a quadrature density, or the
    configured tolerance scale when no second route serves these inputs
    (it raises ValueError or ArithmeticError for them)."""
    other = "quadrature" if method != "quadrature" else "conjecture" if kind == "pdf" else None
    if other is not None:
        try:
            return abs(value - _eval_one(kind, params, x, args, other))
        except (ValueError, ArithmeticError):
            pass
    return abs(value) * args.tol


def _routes(kind: str, method: str, m: int) -> List[str]:
    """The routes --method names for a cdf or pdf.  The conjecture route
    defines the density only and is experimental at m = 4: "all" leaves it
    out of a CDF and out of an m = 4 density."""
    if method != "all":
        if kind == "cdf" and method == "conjecture":
            raise ValueError("the conjecture route defines the density only")
        return [method]
    return ["quadrature", "series"] + (["conjecture"] if kind == "pdf" and m != 4 else []) + ["hgm"]


def cmd_point(kind: str, args) -> int:
    params = WishartParams(args.n, args.m, _parse_lambdas(args.lambdas, args.m))
    rows = []
    for method in _routes(kind, args.method, args.m):
        value = _eval_one(kind, params, args.x, args, method)
        err = _err_estimate(kind, params, args.x, args, method, value)
        rows.append((args.x, value, method, err))
    if args.json:
        print(json.dumps([
            {"x": r[0], "value": r[1], "method": r[2], "err_est": r[3]} for r in rows
        ]))
    else:
        print("x,value,method,err_est")
        for r in rows:
            print(f"{_fmt(r[0])},{_fmt(r[1])},{r[2]},{_fmt(r[3])}")
    return EXIT_OK


def _grid(args) -> List[float]:
    """The evenly spaced abscissas of --x-min, --x-max and --points."""
    if args.points < 2 or not -math.inf < args.x_min < args.x_max < math.inf:
        raise ValueError("bad grid")
    return [args.x_min + i * (args.x_max - args.x_min) / (args.points - 1)
            for i in range(args.points)]


def cmd_table(args) -> int:
    params = WishartParams(args.n, args.m, _parse_lambdas(args.lambdas, args.m))
    xs = _grid(args)
    methods = _routes(args.what, args.method, args.m)
    columns = [_eval_one(args.what, params, xs, args, mth) for mth in methods]
    print("x," + ",".join(f"{args.what}_{mth}" for mth in methods))
    for x, vals in zip(xs, zip(*columns)):
        print(_fmt(x) + "," + ",".join(_fmt(v) for v in vals))
    return EXIT_OK


def cmd_hgm(args) -> int:
    params = WishartParams(args.n, args.m, _parse_lambdas(args.lambdas, args.m))
    rows = hgm.trajectory(params, _grid(args), _cfg_from_args(args, "hgm"))
    dim = 3 ** args.m
    print("x," + ",".join(f"b{i}" for i in range(dim)) + ",R,psi")
    for x, values, R, psi in rows:
        print(_fmt(x) + "," + ",".join(_fmt(v) for v in values) + f",{_fmt(R)},{_fmt(psi)}")
    return EXIT_OK


def cmd_mc(args) -> int:
    params = WishartParams(args.n, args.m, _parse_lambdas(args.lambdas, args.m))
    mcc = mc_validator.McConfig(samples=args.samples, seed=args.seed)
    if args.histogram:
        draws = mc_validator.sample_largest_eig(params, mcc)
        print(mc_validator.histogram_csv(draws, mcc.bins))
        return EXIT_OK
    cfg = _cfg_from_args(args, "quadrature")
    report = mc_validator.compare_cdf(
        params, mcc, lambda x: distribution.cdf(params, x, cfg)
    )
    print(json.dumps(report, indent=2))
    return EXIT_OK if report["pass"] else EXIT_VERIFY


def cmd_verify(args) -> int:
    checks = []
    if args.target in ("operators", "all"):
        checks.append(operators.verify_theorem1)
    if args.target in ("theorem2", "all"):
        checks.append(operators.verify_theorem2)
    # "all" skips the printed operators at an m that has none; "printed"
    # refuses such an m before the series is built
    if args.target == "printed":
        operators.require_printed_m(args.m)
    if args.target == "printed" or (args.target == "all" and args.m in (2, 3)):
        checks.append(operators.verify_printed)
    reports: List[dict] = []
    if checks:
        R = build_R_series(args.n, args.m, args.order)
        for check in checks:
            reports += check(args.n, args.m, args.order, series=R)
    if args.target in ("recurrences", "all"):
        reports.append(h_integrals.verify_recurrences())
    ok = all(r["pass"] for r in reports)
    print(json.dumps(reports, indent=2))
    return EXIT_OK if ok else EXIT_VERIFY


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parse_args(argv, *_parser())
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        _check_options(args)
        if args.command == "cdf":
            return cmd_point("cdf", args)
        if args.command == "pdf":
            return cmd_point("pdf", args)
        if args.command == "table":
            return cmd_table(args)
        if args.command == "hgm":
            return cmd_hgm(args)
        if args.command == "mc":
            return cmd_mc(args)
        if args.command == "verify":
            return cmd_verify(args)
        print(f"unknown command {args.command}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ArithmeticError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
