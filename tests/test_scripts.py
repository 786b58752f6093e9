"""Smoke tests of the scripts in scripts/: each runs in its own interpreter
against the package source and must exit 0 with its header or verdict."""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, proc.stderr


def test_mc_experiment():
    out, _ = run_script("mc_experiment.py", "--samples", "2000")
    report = json.loads(out)
    assert report["check"] == "mc_cdf_band" and report["pass"]
    assert report["params"]["samples"] == 2000 and len(report["points"]) == 20


def test_cross_route_table():
    out, err = run_script("cross_route_table.py", "--points", "4")
    lines = out.splitlines()
    assert lines[0] == "x,quadrature,series,conjecture,hgm,max_rel_spread"
    assert len(lines) == 5
    assert "worst relative spread across routes" in err


def test_verify_structure():
    out, _ = run_script("verify_structure.py")
    lines = out.splitlines()
    assert lines[0].startswith("R series built in")
    verdicts = [ln.split()[-1] for ln in lines if ln.startswith("  ")]
    assert verdicts and all(v in ("zero", "match") for v in verdicts)
    assert json.loads(lines[-1]) == {"pass": True}
