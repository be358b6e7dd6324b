"""The demos stay in step with the package: the walkthrough runs end to end,
and the longer demos import (their main is not called)."""

import importlib.util
import os
import subprocess
import sys

import pytest

import drdplan

SRC = os.path.dirname(os.path.dirname(drdplan.__file__))
DEMOS = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "demos")


def test_policy_walkthrough_runs():
    out = subprocess.run(
        [sys.executable, os.path.join(DEMOS, "policy_walkthrough.py")],
        env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert "bisect_policy trace" in out.stdout


@pytest.mark.parametrize("name", ["benchmark_twowall", "generate_scenarios", "training_size_sweep"])
def test_demo_imports(name):
    spec = importlib.util.spec_from_file_location(f"demo_{name}", os.path.join(DEMOS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
