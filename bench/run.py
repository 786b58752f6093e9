"""Benchmark of the wishart_roots package, end to end and layer by layer.

    python3 bench/run.py --workload points|curves|verify|mc --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  One process acts as a single closed-loop caller (no threads,
BLAS and OpenMP capped at one thread) and drives the library and
``wishart_roots.cli.main`` in-process.  Inputs come from the seed; every
output is checked against an independent mpmath oracle (``oracle.py``) or,
for exact verification, against an exactly zero residual.

With ``--trace 0`` the run executes whole cycles of its workload for about
S seconds (it stops after the cycle that ends within half a cycle of S)
and reports the end-to-end metrics; throughput and p50
latency come from each operation's median latency over its repetitions.
Times (set-up included) are given at a nominal host speed: each is scaled
by a fixed probe of work run beside it (``reference_loop``, ``HostSpeed``),
because the shared host's own speed drifts by more than the bounds; the
raw figures are on the detail line.  ``attempted`` and ``failed`` count distinct
operations, so outside ``mc`` (a new sampler seed per cycle) they depend
on the seed alone, not on how many cycles fitted in the run.
With ``--trace 1`` it executes a fixed number of cycles three times (plain,
with every layer wrapped by the span recorder in ``spans.py``, plain), so
call counts repeat exactly, and reports the per-layer metrics and the
tracing overhead.

The last line of standard output is the JSON result; the line before it
holds the details (tail latency, defect classes, negative controls, oracle
cost).  References are cached under ``.bench_cache/``, traces are written
under ``.bench_out/``.
"""

import time

_T_START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

# before numpy is imported anywhere: one BLAS/OpenMP thread, and the CLI's
# thread pool off
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("WISHART_ROOTS_THREADS", None)

import argparse  # noqa: E402
import bisect  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from fractions import Fraction  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
CACHE_DIR = os.path.join(ROOT, ".bench_cache")
OUT_DIR = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, BENCH)

import workloads as W  # noqa: E402

SETUP_PROBES = 4
SETUP_REF_LOOPS = 10  # reference loops before and after each probe
ORACLE_WORKERS = 2
TRACE_CYCLES = {"points": 5, "curves": 1, "verify": 1, "mc": 1}
CHILD_TIMEOUT_S = 150
NEGATIVE_PERTURB = 100.0  # times the route tolerance


# ---------------------------------------------------------------------------
# host speed
# ---------------------------------------------------------------------------

REF_NOMINAL_S = 1.7e-3  # the probe's time on a 2-vCPU x86-64 host at free speed
REF_EVERY_S = 0.05  # one probe per this much work ...
REF_BURST = 5  # ... and at most this many probes between two operations
REF_WINDOW_S = 1.5  # probes this far around an operation set its scale
REF_MIN_PROBES = 6


def reference_loop() -> float:
    """Seconds taken by a fixed piece of work that uses nothing of the
    package: a probe of the host's current speed.

    It mixes the kinds of work the workloads do (an interpreter loop,
    small allocations and dict updates, scipy's ``quad`` calling back into
    Python), because a busy host slows each kind by a different factor."""
    from scipy.integrate import quad

    t = time.perf_counter()
    s = 0
    for i in range(15_000):
        s += i * i % 7
    d = {}
    for i in range(1_500):
        key = (i % 97, i % 13)
        d[key] = d.get(key, 0.0) + math.sqrt(i + 1.0)
    s += sum(a * b for a, b in [(float(i), i * 0.5) for i in range(750)])
    for k in range(6):
        quad(lambda u: math.exp(-u) * u ** (k + 0.5), 0.0, 3.0 + k)
    return time.perf_counter() - t


class HostSpeed:
    """Reference-loop probes taken between operations, about one per
    REF_EVERY_S seconds of work.

    A shared host slows the whole process by up to 1.7x for seconds to
    minutes at a time, and the probe slows alike, so any raw time
    of a run moves with the host.  ``scaled`` divides an operation's time
    by the median of the probes taken within REF_WINDOW_S of it (at least
    the REF_MIN_PROBES nearest) and multiplies by REF_NOMINAL_S: times are
    reported at one nominal host speed, and only the program moves them."""

    def __init__(self):
        self.at, self.took = [], []
        self.last = None

    def probe(self, count: int = 1):
        for _ in range(count):
            self.took.append(reference_loop())
            self.at.append(time.perf_counter())
        self.last = self.at[-1]

    def maybe_probe(self):
        if self.last is None:
            self.probe(REF_MIN_PROBES)
            return
        due = int((time.perf_counter() - self.last) / REF_EVERY_S)
        if due:
            self.probe(min(due, REF_BURST))

    def scaled(self, start: float, seconds: float) -> float:
        i = bisect.bisect_left(self.at, start - REF_WINDOW_S)
        j = bisect.bisect_right(self.at, start + seconds + REF_WINDOW_S)
        if j - i < REF_MIN_PROBES:
            k = bisect.bisect_left(self.at, start)
            i = max(0, k - REF_MIN_PROBES // 2)
            j = i + REF_MIN_PROBES
        return seconds * REF_NOMINAL_S / statistics.median(self.took[i:j])


# ---------------------------------------------------------------------------
# references
# ---------------------------------------------------------------------------

def load_refs(queries: list) -> tuple:
    """References for ``queries`` keyed by ``W.ref_key``, computed by the
    oracle on first use (ORACLE_WORKERS child processes, each taking every
    ORACLE_WORKERS-th query) and cached per query set.
    Returns (refs, seconds spent in the oracle)."""
    if not queries:
        return {}, 0.0
    with open(os.path.join(BENCH, "oracle.py"), "rb") as fh:
        digest = hashlib.sha256(fh.read() + json.dumps(queries).encode()).hexdigest()[:24]
    path = os.path.join(CACHE_DIR, f"refs-{digest}.json")
    spent = 0.0
    if not os.path.exists(path):
        os.makedirs(CACHE_DIR, exist_ok=True)
        t0 = time.perf_counter()
        procs = []
        try:
            for i in range(ORACLE_WORKERS):
                with open(f"{path}.q{i}", "w") as fh:
                    json.dump(queries[i::ORACLE_WORKERS], fh)
                procs.append(subprocess.Popen([sys.executable, os.path.join(BENCH, "oracle.py"),
                                               f"{path}.q{i}", f"{path}.v{i}"]))
            for p in procs:
                if p.wait(timeout=CHILD_TIMEOUT_S) != 0:
                    raise RuntimeError("reference oracle failed")
        finally:
            for p in procs:
                if p.poll() is None:
                    p.kill()
                    p.wait()
        values = [None] * len(queries)
        for i in range(ORACLE_WORKERS):
            with open(f"{path}.v{i}") as fh:
                values[i::ORACLE_WORKERS] = json.load(fh)
            os.remove(f"{path}.q{i}")
            os.remove(f"{path}.v{i}")
        with open(path + ".tmp", "w") as fh:
            json.dump(values, fh)
        os.replace(path + ".tmp", path)
        spent = time.perf_counter() - t0
    with open(path) as fh:
        values = json.load(fh)
    return {W.ref_key(*q): v for q, v in zip(queries, values)}, spent


def setup(workload: str, seed: int):
    """Import the package, generate the inputs and load the references."""
    sys.path.insert(0, SRC)
    pkg = W.Package()
    inputs = W.make_inputs(workload, seed)
    refs, _ = load_refs(W.reference_queries(workload, inputs))
    return pkg, inputs, refs


def measure_setup(workload: str, seed: int) -> float:
    """Median set-up time over fresh interpreters (each imports numpy,
    scipy and the package from scratch), each scaled to the nominal host
    speed by reference loops run just before and after it."""
    times = []
    for _ in range(SETUP_PROBES):
        ref = [reference_loop() for _ in range(SETUP_REF_LOOPS)]
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--probe-setup",
             "--workload", workload, "--seed", str(seed)],
            check=True, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        ref += [reference_loop() for _ in range(SETUP_REF_LOOPS)]
        took = float(out.stdout.strip().splitlines()[-1])
        times.append(took * REF_NOMINAL_S / statistics.median(ref))
    return statistics.median(times)


# ---------------------------------------------------------------------------
# running cycles
# ---------------------------------------------------------------------------

def run_cycles(pkg, workload, inputs, stop, host=None):
    """Execute whole cycles until ``stop(cycles_done, elapsed)``, probing
    the host's speed between operations when ``host`` is given.

    Returns [[op, result, repeats]], ``lat[slot]`` (the (start, seconds) of
    every run of that slot) and the number of cycles.  A repeat of an operation
    that returns what its first run returned is counted, not stored, so
    that memory does not grow with the number of cycles."""
    results, first, lat = [], {}, {}
    t0 = time.perf_counter()
    c = 0
    while True:
        for op in W.cycle_ops(workload, inputs, c):
            if op.get("clear"):
                pkg.clear_caches()
                continue
            if host is not None:
                host.maybe_probe()
            t = time.perf_counter()
            try:
                r = pkg.run(op)
            except Exception as exc:  # an operation that raises counts as failed
                r = exc
            lat.setdefault(op["slot"], []).append((t, time.perf_counter() - t))
            prev = first.get(id(op))
            if prev is not None and prev[0] is op and prev[1] == r:
                prev[2] += 1
            else:
                entry = [op, r, 1]
                first.setdefault(id(op), entry)
                results.append(entry)
        c += 1
        if stop(c, time.perf_counter() - t0):
            return results, lat, c


def warm_up(pkg, workload, inputs):
    """First calls (lazy imports, solver set-up) outside the measurement."""
    ops = [op for op in W.cycle_ops(workload, inputs, -1) if not op.get("clear")]
    for op in ops[:30] if workload == "points" else ops[:1]:
        pkg.run(op)
    pkg.clear_caches()


def units_of(op, result) -> int:
    if "kind" in op:
        return 1
    if "lclm" in op:
        return len(op["lclm"])
    cmd = op["argv"][0]
    if cmd == "mc":
        return W.MC_SAMPLES
    if cmd == "verify":
        return len(json.loads(result[1])) if not isinstance(result, BaseException) else 0
    return len(op["xs"])


def judge(results, refs):
    """Check every distinct output once; returns the checker, the number of
    operations attempted and failed, and the negative-control misses.

    An operation is counted once however often it ran, and fails when any
    of its outputs fails, so the counts depend on the seed and not on how
    many cycles the run had time for."""
    checker = W.Checker(refs)
    passed = [checker.check(op, r) for op, r, _ in results]
    failed_ops = {id(op) for ok, (op, _, _) in zip(passed, results) if not ok}
    attempted = len({id(op) for op, _, _ in results})
    # negative control: every numeric output that passed must fail once it
    # is moved by a hundred times its tolerance
    control = W.Checker(refs, perturb=NEGATIVE_PERTURB)
    missed = sum(1 for ok, (op, r, _) in zip(passed, results)
                 if ok and W.is_numeric(op) and control.check(op, r))
    return checker, attempted, len(failed_ops), missed


def negative_controls(pkg, workload, inputs) -> dict:
    """Exact and statistical checks that must fail on a wrong input."""
    out = {}
    if workload == "verify":
        n, m, order = W.VERIFY_CASES[0]
        R = pkg.series_engine.build_R_series(n, m, order)
        eig = Fraction(m * n - m * (m - 1) // 2 - 1) + 1
        res = pkg.operators.euler_shift_operator(n, m).apply(R) - R.scale(eig)
        rep = pkg.operators.residual_report("theorem2_eigenvalue_off_by_one", {}, res)
        out["eigenvalue_off_by_one_fails"] = not rep["pass"]
    if workload == "mc":
        cfg = inputs["configs"][0]
        d = pkg.distribution
        p = d.WishartParams(cfg["n"], cfg["m"], cfg["lambdas"])
        mcc = pkg.mc_validator.McConfig(samples=2 * W.MC_SAMPLES, seed=cfg["seed"])
        ecfg = d.EvalConfig()
        rep = pkg.mc_validator.compare_cdf(p, mcc, lambda x: d.cdf(p, x, ecfg), perturb=0.02)
        out["perturb_0.02_fails_band"] = not rep["pass"]
    return out


def tail(lat) -> dict:
    """Highest percentile with at least ten samples beyond it."""
    n = len(lat)
    if n < 20:
        return {"op_tail_ms": None, "percentile": None, "samples": n}
    s = sorted(lat)
    return {"op_tail_ms": 1000.0 * s[n - 11], "percentile": 100.0 * (n - 10) / n, "samples": n}


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=22.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not os.path.exists(os.path.join(SRC, "wishart_roots", "__init__.py")):
        print(f"no package source under {SRC}", file=sys.stderr)
        return 2
    if args.probe_setup:
        setup(args.workload, args.seed)
        print(time.perf_counter() - _T_START)
        return 0

    # references first (oracle child, cached), then the set-up probes, so
    # that every probe loads the references from the cache
    inputs = W.make_inputs(args.workload, args.seed)
    _, oracle_s = load_refs(W.reference_queries(args.workload, inputs))
    setup_s = measure_setup(args.workload, args.seed) if not args.trace else None
    pkg, inputs, refs = setup(args.workload, args.seed)

    warm_up(pkg, args.workload, inputs)
    detail = {"workload": args.workload, "seed": args.seed, "unit": W.UNIT[args.workload]}
    if args.trace:
        import spans as T

        cycles = TRACE_CYCLES[args.workload]

        def timed_pass():
            pkg.clear_caches()
            t0 = time.perf_counter()
            out = run_cycles(pkg, args.workload, inputs, lambda c, _: c >= cycles)
            return out, time.perf_counter() - t0

        # plain, traced, plain: the overhead is taken against the mean of the
        # two plain passes, which brackets the traced one in time
        _, plain_a = timed_pass()
        rec = T.SpanRecorder()
        rec.install({m.__name__.rsplit(".", 1)[1]: m for m in pkg.modules})
        try:
            before = pkg.cache_info()
            (results, lat, cycles), traced_s = timed_pass()
            after = pkg.cache_info()
        finally:
            rec.uninstall()
        _, plain_b = timed_pass()
        plain_s = (plain_a + plain_b) / 2.0
    else:
        def stop(c, elapsed):
            # the next cycle would end more than half a cycle past S
            return elapsed * (1.0 + 0.5 / c) >= args.seconds

        host = HostSpeed()
        results, lat, cycles = run_cycles(pkg, args.workload, inputs, stop, host)
        host.probe(REF_MIN_PROBES)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.workload == "mc":
        mc_refs, spent = load_refs(W.mc_queries([(op, r) for op, r, _ in results]))
        refs.update(mc_refs)
        oracle_s += spent
    checker, attempted, failed, missed = judge(results, refs)
    controls = negative_controls(pkg, args.workload, inputs)
    if args.workload in ("points", "curves", "mc"):
        controls["perturbed_outputs_flagged"] = missed == 0
    correct = not checker.unexplained and all(controls.values())

    units = sum(units_of(op, r) * n for op, r, n in results)
    detail.update({
        "operations": sum(n for _, _, n in results), "units": units,
        "failed_frac": failed / attempted,
        "failed_by_defect": checker.defects,
        "unexplained": checker.unexplained[:10], "negative_controls": controls,
        "max_rel_err": checker.max_err, "oracle_s": oracle_s,
    })
    if args.trace:
        agg = rec.aggregate()
        metrics = {}
        for name, unit, _ in T.LAYER_METRICS:
            prefix, field = name.rsplit(".", 1)
            if prefix.startswith("accuracy."):
                value = checker.max_err[prefix.split(".")[1]]
            elif name == "trace.overhead_frac":
                value = traced_s / plain_s - 1.0
            elif field == "hit_ratio":
                hits = after[prefix]["hits"] - before[prefix]["hits"]
                misses = after[prefix]["misses"] - before[prefix]["misses"]
                value = hits / (hits + misses) if hits + misses else 0.0
            else:
                value = agg[prefix][field]
            metrics[name] = {"value": value, "unit": unit}
        detail.update({"plain_s": plain_s, "traced_s": traced_s, "cache_info": after})
        os.makedirs(OUT_DIR, exist_ok=True)
        trace_path = os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.json")
        rec.write(trace_path, {"detail": detail})
        detail["trace_file"] = os.path.relpath(trace_path, ROOT)
    else:
        # each slot's median over its repetitions, every one scaled to the
        # nominal host speed by the probes around it
        scaled = {slot: [host.scaled(t, d) for t, d in v] for slot, v in lat.items()}
        slot_s = {slot: statistics.median(v) for slot, v in scaled.items()}
        raw_s = {slot: statistics.median(d for _, d in v) for slot, v in lat.items()}
        slot_units = {}
        for op, r, _ in results:
            slot_units.setdefault(op["slot"], units_of(op, r))
        per_cycle = {slot: len(v) // cycles for slot, v in lat.items()}

        def rate(per_slot):
            return (sum(slot_units[k] * per_cycle[k] for k in lat)
                    / sum(per_slot[k] * per_cycle[k] for k in lat))

        detail.update(tail([t for v in scaled.values() for t in v]))
        detail.update({"cycles": cycles, "raw_units_per_s": rate(raw_s),
                       "raw_op_p50_ms": 1000.0 * statistics.median(raw_s.values()),
                       "ref_loop_ms": 1000.0 * statistics.median(host.took),
                       "ref_probes": len(host.took)})
        metrics = {
            "units_per_s": {"value": rate(slot_s), "unit": "1/s"},
            "op_p50_ms": {"value": 1000.0 * statistics.median(slot_s.values()), "unit": "ms"},
            "ok_frac": {"value": 1.0 - failed / attempted, "unit": "ratio"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
    print(json.dumps(detail))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
