"""Checks on the benchmark itself (not part of the package's test suite):

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter, sleep

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import jobs  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402


@pytest.fixture(scope="module")
def api():
    sys.path.insert(0, str(jobs.SRC))
    import umbralog
    import umbralog.cli

    return umbralog


@pytest.fixture(scope="module")
def reference():
    return jobs.load_reference()


def test_reference_covers_every_drawable_job(reference):
    keys = {jobs.job_key(j) for j in jobs.all_jobs()}
    assert keys == set(reference["jobs"])
    for workload in jobs.WORKLOADS:
        for seed in range(20):
            assert {jobs.job_key(j) for j in jobs.workload_jobs(workload, seed)} <= keys


def test_changed_rational_is_caught(api, reference):
    job = ("family", "exp1", 24)
    key = jobs.job_key(job)
    fam = jobs.run_job(job, api, {})
    assert jobs.check(key, fam, None, reference) == "ok"
    coeffs = list(fam.omega.coeffs)
    coeffs[7] += Fraction(1, 10**9)
    changed = dataclasses.replace(fam, omega=api.series.PowerSeries("x", coeffs))
    assert jobs.check(key, changed, None, reference) == "mismatch"


def test_fields_added_after_recording_are_ignored(api, reference):
    job = ("cli", "pseq", "exp1")
    key = jobs.job_key(job)
    output = jobs.run_job(job, api, {})
    output["out"]["extrapolated"] = "1/2"
    output["out"]["added_later"] = [1, 2]
    assert jobs.check(key, output, None, reference) == "ok"
    output["out"]["polys"][3][1] = "5/7"
    assert jobs.check(key, output, None, reference) == "mismatch"


def test_only_the_seed_error_is_known(reference):
    key = "limit|exp1|36|first|2|32"
    kind, message = reference["jobs"][key]["seed_raises"].split(": ", 1)
    assert kind == "TypeError" and "extrapolated" in message
    seed_error = TypeError(message)
    assert jobs.check(key, None, seed_error, reference) == "known"
    assert jobs.check(key, None, TypeError("raised early"), reference) == "error"
    assert jobs.check(key, None, ValueError(message), reference) == "error"
    assert jobs.check("family|exp1|24", None, seed_error, reference) == "error"


def test_speed_meter_samples_while_work_runs():
    meter = worker.SpeedMeter()
    meter.start()
    end = perf_counter() + 0.1
    while perf_counter() < end:
        pass
    samples, spent = meter.stop()
    assert len(samples) >= 5 and 0 < spent < 0.1
    sleep(3 * worker.TICK_S)
    assert len(meter.samples) == len(samples)  # the timer is off
    # a host half as fast reads half the reference speed
    assert worker.speed_factor([2 * worker.REF_PROBE_S] * 3) == pytest.approx(0.5)


@pytest.mark.parametrize("workload", sorted(jobs.WORKLOADS))
def test_traced_counts_repeat(workload):
    exact = [n for n, u in run.PER_LAYER if u in run.EXACT_UNITS]
    first, second = (run.worker(workload, 3, trace=True) for _ in range(2))
    assert [first["layers"].get(n) for n in exact] == [
        second["layers"].get(n) for n in exact
    ]
    assert first["layers"]["umbral.build_family.calls"] > 0
    # the times in the result line are produced by every workload
    shared = [n for n, u in run.RESULT_LAYER if u == "s" and n != "trace.overhead_s"]
    assert all(first["layers"].get(n, 0) > 0 for n in shared)
    for result in (first, second):
        assert all(j["grade"] in ("ok", "known") for j in result["jobs"])


def test_benchmark_json_matches_the_harness():
    spec = json.loads((jobs.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(jobs.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.RESULT_LAYER)
