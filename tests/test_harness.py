"""Checks on the test and benchmark harness rather than on uwbcal."""

import importlib
import importlib.util
import os
from pathlib import Path

import pytest

pytest_plugins = ["pytester"]

ROOT = Path(__file__).resolve().parents[1]


def resolves(dotted: str) -> bool:
    """True if ``dotted`` names an attribute reachable from an importable
    module: ``uwbcal.sim.locate_tag``, ``uwbcal.geometry.Point2.__post_init__``."""
    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:]:
            if not hasattr(target, name):
                return False
            target = getattr(target, name)
        return True
    return False


def test_every_traced_metric_group_has_a_hook_target():
    # bench/tracing.py reports a group's metrics as null (not measured) when
    # none of the names it wraps exists any more
    spec = importlib.util.spec_from_file_location(
        "tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    unhooked = [group for group, names in tracing._NEEDS.items()
                if names and not any(map(resolves, names))]
    assert unhooked == []


def test_a_failing_property_does_not_end_the_session(pytester, monkeypatch):
    # run under this suite's conftest and warning filter, in a fresh process
    path = [str(ROOT / "src")] + os.environ.get("PYTHONPATH", "").split(
        os.pathsep)
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(filter(None, path)))
    pytester.makeconftest((ROOT / "tests" / "conftest.py").read_text())
    pytester.makeini("[pytest]\nfilterwarnings = error\n")
    pytester.makepyfile(test_two="""
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(n):
            assert n < 0

        def test_runs_after_it():
            pass
    """)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    assert "INTERNALERROR" not in result.stdout.str()
    result.assert_outcomes(failed=1, passed=1)
