"""The benchmark drives the package through names it looks up at run time:
the traced layers of ``bench/spans.py`` and the caches and config keywords
of ``bench/workloads.py``.  Both files are loaded by path, unchanged, so a
renamed or removed binding fails here rather than in a benchmark run."""

import csv
import importlib
import importlib.util
import io
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = load("spans")


@pytest.mark.parametrize("mod_name,path,metric", spans.LAYERS, ids=[m for _, _, m in spans.LAYERS])
def test_layer_resolves(mod_name, path, metric):
    owner = importlib.import_module(f"wishart_roots.{mod_name}")
    if "." in path:
        cls_name, attr = path.split(".")
        # the recorder wraps the method found in the class's own namespace
        assert callable(vars(getattr(owner, cls_name))[attr])
    else:
        assert callable(getattr(owner, path))


def test_recorder_installs_on_package_modules():
    pkg = load("workloads").Package()
    modules = {m.__name__.rsplit(".", 1)[1]: m for m in pkg.modules}
    before = {name: dict(vars(m)) for name, m in modules.items()}
    rec = spans.SpanRecorder()
    try:
        rec.install(modules)
    finally:
        rec.uninstall()
    assert sorted(rec.names) == sorted(m for _, _, m in spans.LAYERS)
    for name, m in modules.items():
        assert all(vars(m)[k] is v for k, v in before[name].items())


def test_workloads_package_constructs():
    pkg = load("workloads").Package()
    # every named cache is an lru_cache the run can clear and read
    assert set(pkg.cache_info()) == set(pkg.caches)
    assert {cfg.method for cfg in pkg.cfg.values()} == {"quadrature", "conjecture"}


def test_lclm_operation_runs():
    # the verify workload's exact LCLM operation, on every case it times
    workloads = load("workloads")
    cases = workloads.LCLM_CASES
    assert len(cases) == 4
    assert workloads.Package().run({"lclm": cases}) == [True] * len(cases)


def test_curves_hgm_operations_match_quadrature():
    # every hgm grid of the curves workload, run as the benchmark runs it
    from wishart_roots.distribution import EvalConfig, WishartParams, pdf_quadrature

    workloads = load("workloads")
    pkg = workloads.Package()
    ops = [op for curves in workloads.make_inputs("curves", 1)["sets"]
           for op in curves["cheap"] + curves["heavy"] if op["route"] == "hgm"]
    assert len(ops) == 3
    for op in ops:
        rc, text = pkg.run(op)
        assert rc == 0
        header, *rows = csv.reader(io.StringIO(text))
        assert [float(r[0]) for r in rows] == op["xs"]
        col = header.index(op["col"])
        p = WishartParams(op["n"], op["m"], op["lambdas"])
        for r in rows:
            ref = pdf_quadrature(p, float(r[0]), EvalConfig())
            assert float(r[col]) == pytest.approx(ref, rel=1e-10, abs=0)


def test_curves_series_operations_match_quadrature():
    # both series grids of the curves workload, run as the benchmark runs it
    from wishart_roots.distribution import EvalConfig, WishartParams, pdf_quadrature

    workloads = load("workloads")
    pkg = workloads.Package()
    ops = [op for curves in workloads.make_inputs("curves", 1)["sets"]
           for op in curves["cheap"] + curves["heavy"] if op["route"] == "series"]
    assert len(ops) == 2
    for op in ops:
        rc, text = pkg.run(op)
        assert rc == 0
        header, *rows = csv.reader(io.StringIO(text))
        assert [float(r[0]) for r in rows] == op["xs"]
        col = header.index(op["col"])
        p = WishartParams(op["n"], op["m"], op["lambdas"])
        for r in rows:
            ref = pdf_quadrature(p, float(r[0]), EvalConfig())
            assert float(r[col]) == pytest.approx(ref, rel=1e-6, abs=0)


def test_curves_cheap_operations_match_points():
    # the six quadrature and conjecture grids of the curves workload, run as
    # the benchmark runs them: one call per grid, each value the scalar call's
    from wishart_roots.distribution import (EvalConfig, WishartParams, cdf_quadrature, pdf_conjecture,
                                            pdf_quadrature)

    workloads = load("workloads")
    pkg = workloads.Package()
    ops = [op for curves in workloads.make_inputs("curves", 1)["sets"] for op in curves["cheap"]]
    assert len(ops) == 6
    routes = {("quadrature", "cdf"): cdf_quadrature, ("quadrature", "pdf"): pdf_quadrature,
              ("conjecture", "pdf"): pdf_conjecture}
    for op in ops:
        rc, text = pkg.run(op)
        assert rc == 0
        header, *rows = csv.reader(io.StringIO(text))
        assert [float(r[0]) for r in rows] == op["xs"]
        col = header.index(op["col"])
        p, point = WishartParams(op["n"], op["m"], op["lambdas"]), routes[op["route"], op["what"]]
        for r in rows:
            assert float(r[col]) == pytest.approx(point(p, float(r[0]), EvalConfig()), rel=1e-11, abs=0)
