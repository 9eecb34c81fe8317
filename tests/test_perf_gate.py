"""The e18 perf gate's comparison (benchmarks/bench_e18_fastpath.py).

The bench is loaded from its file path (benchmarks/ is not a package)
and its ``check_gate`` fed synthetic measurement/baseline dicts, so the
verdicts are checked without timing anything.
"""

import importlib.util
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

spec = importlib.util.spec_from_file_location(
    "bench_e18_fastpath", REPO / "benchmarks" / "bench_e18_fastpath.py"
)
bench_e18 = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_e18)

BASELINE = {key: {"speedup": 13.0} for key in bench_e18.GATE_KEYS}


def _at_floor() -> dict:
    return {key: {"speedup": BASELINE[key]["speedup"] / bench_e18.TOLERANCE}
            for key in bench_e18.GATE_KEYS}


def test_speedup_at_the_floor_passes():
    ok, lines = bench_e18.check_gate(_at_floor(), BASELINE)
    assert ok
    assert len(lines) == len(bench_e18.GATE_KEYS)
    assert all(line.endswith("-> OK") for line in lines)


def test_speedup_below_the_floor_fails():
    data = _at_floor()
    data["lifetime_quick"]["speedup"] *= 0.99
    ok, lines = bench_e18.check_gate(data, BASELINE)
    assert not ok
    regressed = [line for line in lines if line.endswith("-> REGRESSION")]
    assert len(regressed) == 1 and "[lifetime_quick]" in regressed[0]


def test_missing_key_fails():
    data = _at_floor()
    del data["traffic_quick"]
    ok, lines = bench_e18.check_gate(data, BASELINE)
    assert not ok
    assert any("[traffic_quick]" in line and "measurement" in line
               and "MISSING" in line for line in lines)

    baseline = dict(BASELINE)
    del baseline["quick"]
    ok, lines = bench_e18.check_gate(_at_floor(), baseline)
    assert not ok
    assert any("[quick]" in line and "baseline" in line and "MISSING" in line
               for line in lines)
