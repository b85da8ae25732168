"""Checks on the test and benchmark harness rather than on uwbcal."""

import importlib
import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

pytest_plugins = ["pytester"]

ROOT = Path(__file__).resolve().parents[1]


def resolves(dotted: str) -> bool:
    """True if ``dotted`` names an attribute reachable from an importable
    module: ``uwbcal.sim.distance``, ``uwbcal.sim.ScenarioConfig.from_dict``."""
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


def test_traced_counts_follow_the_schedule():
    # bench/tracing.py wraps names in uwbcal.sim; a call that reaches its
    # target another way (a name bound at import, another module's
    # attribute) escapes the tracer, whose counts then read 0
    spec = importlib.util.spec_from_file_location(
        "tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    import uwbcal
    tracer = tracing.Tracer()
    with tracing.installed(tracer, uwbcal) as api:
        api.run_scenario(uwbcal.ScenarioConfig(seed=0))
    spans = [tracer.names[i] for i in tracer.name]
    # the default scenario calibrates at steps 10, 20, 30, 40 and 50
    assert spans.count("protocol.run_calibration_round") == 6
    assert spans.count("autocalib.calibrate.bootstrap") == 1
    assert spans.count("autocalib.calibrate.warm") == 5


def refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("workload",
                         ["default_ensemble", "recal_dense", "long_drift"])
def test_traced_benchmark_ends_in_a_result(workload):
    # a traced run can exit 0 and still not end in a result: a metric reads
    # null when a name bench/tracing.py wraps is gone, json.dumps writes a
    # bare NaN for a non-finite one, and a later print moves the line
    result = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         "3", "--seconds", "1", "--trace", "1", "--scenarios", "2"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    line = json.loads(result.stdout.splitlines()[-1],
                      parse_constant=refuse_constant)
    assert line["correct"] is True
    bad = {name: metric["value"] for name, metric in line["metrics"].items()
           if type(metric["value"]) not in (int, float)
           or not math.isfinite(metric["value"])}
    assert bad == {}


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
