"""Contract test of the benchmark itself, on short horizons.

Run with ``python3 -m pytest perfbench -q`` from the repository root
(a few seconds).  It is outside the tier-1 ``testpaths`` on purpose: the
full workloads never run under the tier-1 suite, and nothing here writes
into the repository.

Timing assertions compare ratios within one run, never absolute seconds.
"""

from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import run

run._load_simulator()

import calibrate  # noqa: E402
import points  # noqa: E402
import spans  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
LAYERS = sorted(set(spans.module_layers().values()))

#: Short-horizon sizes: every layer still runs, each pass takes ~1 s.
SHORT = {
    "SATURATED_POINTS_PER_SCHEDULER": 1,
    "SATURATED_CLOCKS": 40_000.0,
    "BULK_POINTS": 1,
    "BULK_BATS_PER_POINT": 300,
    "SHARDED_POINTS": 1,
    "SHARDED_CLOCKS": 30_000.0,
}


@pytest.fixture(scope="module")
def traced():
    """One traced run per workload at short horizons."""
    patch = pytest.MonkeyPatch()
    for name, value in SHORT.items():
        patch.setattr(points, name, value)
    try:
        yield {w: run.measure(w, 7, 0.0, trace=True) for w in run.WORKLOADS}
    finally:
        patch.undo()


def test_traced_runs_pass_every_check(traced):
    for workload, record in traced.items():
        # At these short horizons the saturated backlog is still small,
        # so the core-majority check of paper-saturated does not apply;
        # test_core_layers_weigh_more_where_admission_dominates stands in.
        errors = [e for e in record["errors"]
                  if workload != "paper-saturated" or "core layers" not in e]
        assert errors == [], workload
        # The traced pass and the history pass reproduced the untraced
        # digests exactly.
        assert record["attempted"] == 3 * len(record["points"])
        assert not any("digest" in e for e in record["errors"]), workload


def test_every_layer_appears_and_some_workload_exercises_it(traced):
    for record in traced.values():
        for layer in LAYERS:
            assert f"{layer}.share" in record["metrics"], layer
    busy = {layer for record in traced.values() for layer in LAYERS
            if record["metrics"][f"{layer}.share"]["value"] > 0}
    assert busy == set(LAYERS)


def test_every_timed_function_maps_to_a_committed_layer():
    table = spans.span_layers()
    assert set(table.values()) <= set(LAYERS)
    for module, _, _, name in spans.TIMED + spans.RESUMED:
        assert spans.layer_of(module) == table[name]


def test_self_time_shares_sum_to_one(traced):
    for workload, record in traced.items():
        total = sum(record["metrics"][f"{layer}.share"]["value"]
                    for layer in LAYERS)
        assert math.isclose(total, 1.0, rel_tol=1e-9), workload


def test_no_span_is_left_without_a_parent(traced):
    for workload, record in traced.items():
        kept = record["spans"]
        assert kept, workload
        ids = {span["id"] for span in kept}
        for span in kept:
            if span["parent"] == -1:
                assert span["name"] == spans.ROOT[3], span
            else:
                assert span["parent"] in ids, span
                assert span["parent"] < span["id"], span
            assert span["start"] <= span["end"]


def test_core_layers_weigh_more_where_admission_dominates(traced):
    share = {w: r["metrics"]["core.share"]["value"]
             for w, r in traced.items()}
    assert share["paper-saturated"] > share["bulk-scan"]


def test_per_layer_names_and_units_match_benchmark_json(traced):
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    for workload, record in traced.items():
        reported = {name: entry["unit"]
                    for name, entry in record["metrics"].items()}
        assert reported == declared, workload


def test_every_end_to_end_metric_is_printed_with_its_unit(tmp_path,
                                                          monkeypatch):
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert declared == run.END_TO_END
    monkeypatch.setattr(run, "OUT", tmp_path)
    for name, value in SHORT.items():
        monkeypatch.setattr(points, name, value)
    record = run.measure("sharded-recovery", 7, 0.0, trace=False)
    out = io.StringIO()
    with redirect_stdout(out):
        run.report(record, trace=False)
    lines = out.getvalue().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    for name, unit in declared.items():
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0, name
        assert any(line.split()[:1] == [name] and line.endswith(unit)
                   for line in lines[:-1]), name
    assert list(Path(tmp_path).iterdir())


def test_reference_time_is_host_time_over_the_kernel_slowdown():
    done = run.Pass()
    done.walls = [1.0, 3.0]
    done.kernels = [calibrate.REFERENCE_S * f for f in (2.0, 2.0, 9.0)]
    # The median ignores the one kernel run that caught an interruption.
    assert done.slowdown == pytest.approx(2.0)
    assert done.reference_s == pytest.approx(2.0)
    assert done.reference_walls == pytest.approx([0.5, 1.5])


def test_calibration_kernel_is_the_benchmarks_own_code():
    assert calibrate.kernel() == calibrate.KERNEL_SUM
    assert not any(name.startswith("repro")
                   for name in calibrate.__dict__)
    assert "repro" not in (run.HERE / "calibrate.py").read_text()


def test_workload_names_agree_everywhere():
    choices = json.loads((run.HERE / "choices.json").read_text())
    names = [w["name"] for w in BENCHMARK["workloads"]]
    assert names == list(run.WORKLOADS) == list(points.BUILDERS)
    assert set(choices["workloads"]) == set(names)
