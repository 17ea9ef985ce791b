"""umbralog benchmark: one seeded workload, timed end to end through the
public API, every job's exact output checked against the seed's digest.

    python3 perfbench/run.py --workload deep_family --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36

A run repeats the workload's job list in passes, each in a fresh worker
process (``worker.py``), one at a time, until ``--seconds`` is spent.
``--trace 0`` reports the end-to-end metrics of untraced passes;
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones plus the tracing overhead.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  A job fails when it raises or its output's
digest differs from the reference; ``correct`` is false only for failures
the seed did not have.  Every time is scaled to a reference host speed,
measured while each job runs (see ``worker.py``); the table before the
JSON line also gives the unscaled wall-clock ``run_s`` and ``setup_s``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import jobs as jobs_mod  # noqa: E402

END_TO_END = (
    ("run_s", "s"),
    ("job_s_p50", "s"),
    ("job_s_p90", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    ("series.compose.calls", "count"),
    ("series.compose.self_s", "s"),
    ("series.revert.calls", "count"),
    ("series.revert.self_s", "s"),
    ("series.mul.fraction.self_s", "s"),
    ("series.max_coeff_bits", "bits"),
    ("series.compose.order_exponent", "exponent"),
    ("series.mul.parampoly.self_s", "s"),
    ("series.mul.nested.self_s", "s"),
    ("series.div.self_s", "s"),
    ("series.explog.self_s", "s"),
    ("parampoly.mul.calls", "count"),
    ("parampoly.mul.self_s", "s"),
    ("ncwords.head_word_poly.self_s", "s"),
    ("ncwords.word_count", "count"),
    ("operators.build_Tn.calls", "count"),
    ("operators.build_Tn.self_s", "s"),
    ("operators.word_to_diffop.calls", "count"),
    ("umbral.build_family.calls", "count"),
    ("umbral.build_family.self_s", "s"),
    ("umbral.build_family.distinct_ratio", "ratio"),
    ("umbral.build_family.order_exponent", "exponent"),
    ("umbral.p_seq.self_s", "s"),
    ("umbral.q_table.self_s", "s"),
    ("stirling.stirling_terms.self_s", "s"),
    ("stirling.verify_log_identity.self_s", "s"),
    ("stirling.limit_check.self_s", "s"),
    ("stirling.limit_check.failed", "count"),
    ("sheffer.tau_seq.self_s", "s"),
    ("grading.ratio_resolvent.self_s", "s"),
    ("conjugation.self_s", "s"),
    ("report.self_s", "s"),
    ("presets.self_s", "s"),
    ("asymptotic.self_s", "s"),
    ("polys.self_s", "s"),
    *((f"verify.suite.{name}.s", "s") for name in jobs_mod.SUITES),
    *((f"cli.{cmd}.s", "s") for cmd in jobs_mod.CLI_PER_SPEC + ("limits", "verify")),
    ("trace.overhead_s", "s"),
)
# Per-layer values that must repeat exactly between traced passes.
EXACT_UNITS = ("count", "bits", "ratio")
# The per-layer times every workload produces.  The other times belong to
# layers some workload never calls, where they read exactly 0 on every
# run; they are printed but kept out of the result line.
SHARED_TIMES = (
    "series.compose.self_s", "series.revert.self_s", "series.mul.fraction.self_s",
    "series.div.self_s", "series.explog.self_s", "ncwords.head_word_poly.self_s",
    "operators.build_Tn.self_s", "umbral.build_family.self_s",
    "stirling.stirling_terms.self_s", "trace.overhead_s",
)
RESULT_LAYER = tuple((n, u) for n, u in PER_LAYER if u != "s" or n in SHARED_TIMES)

MIN_PASSES = 2      # untraced passes in a run
MIN_JOBS = 100      # untraced jobs in a run, so that 10 lie beyond p90
MIN_TRACED = 1      # traced and untraced passes each, in a traced run
SETUPS_PER_PASS = 8  # extra cold set-ups beside each untraced pass
OVERRUN = 1.1       # a pass may start if it should end by 1.1 x --seconds
DEADLINE = 140.0    # no pass starts after this many seconds
PASS_TIMEOUT = 150.0


class BenchError(RuntimeError):
    pass


def worker(workload: str, seed: int, trace: bool = False,
           setup_only: bool = False, spans: Path | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace))]
    if setup_only:
        cmd.append("--setup-only")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    try:
        proc = subprocess.run(cmd, cwd=jobs_mod.ROOT, capture_output=True,
                              text=True, timeout=PASS_TIMEOUT)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"a pass took longer than {PASS_TIMEOUT} s") from exc
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_passes(workload: str, seed: int, seconds: float, trace: bool) -> list:
    """[(traced, worker result)]; traced runs alternate untraced/traced."""
    t0 = time.monotonic()
    passes, walls = [], []
    while True:
        traced = trace and len(passes) % 2 == 1
        spans = None
        if traced:
            spans = jobs_mod.OUT_DIR / f"spans-{workload}-{seed}-{len(passes)}.json"
        start = time.monotonic()
        result = worker(workload, seed, traced, spans=spans)
        # set-up samples spread over the run, beside each pass
        setups = [result] + [worker(workload, seed, setup_only=True)
                             for _ in range(0 if trace else SETUPS_PER_PASS)]
        result["setups"] = [r["setup_s"] for r in setups]
        result["setup_walls"] = [r["setup_wall_s"] for r in setups]
        walls.append(time.monotonic() - start)
        passes.append((traced, result))
        elapsed = time.monotonic() - t0
        n_traced = sum(t for t, _ in passes)
        n_plain = len(passes) - n_traced
        if trace:
            short = min(n_traced, n_plain) < MIN_TRACED
        else:
            n_jobs = sum(len(r["jobs"]) for _, r in passes)
            short = n_plain < MIN_PASSES or n_jobs < MIN_JOBS
        next_end = elapsed + statistics.median(walls)
        if next_end > DEADLINE or (not short and next_end > seconds * OVERRUN):
            return passes


def pass_seconds(result: dict) -> float:
    return sum(j["s"] for j in result["jobs"])


def summarize(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    passes = run_passes(workload, seed, seconds, trace)
    plain = [r for t, r in passes if not t]
    traced = [r for t, r in passes if t]
    jobs = [j for _, r in passes for j in r["jobs"]]
    failures = [j for j in jobs if j["grade"] != "ok"]
    out = {
        "correct": all(j["grade"] in ("ok", "known") for j in jobs),
        "attempted": len(jobs),
        "failed": len(failures),
    }
    metrics, samples = {}, {}
    if not trace:
        times = [j["s"] for r in plain for j in r["jobs"]]
        setups = [s for _, r in passes for s in r["setups"]]
        values = {
            "run_s": (statistics.median(pass_seconds(r) for r in plain), len(plain)),
            "job_s_p50": (statistics.median(times), len(times)),
            "job_s_p90": (statistics.quantiles(times, n=10)[8], len(times)),
            "setup_s": (statistics.median(setups), len(setups)),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in plain), len(plain)),
        }
        for name, unit in END_TO_END:
            metrics[name] = {"value": values[name][0], "unit": unit}
            samples[name] = values[name][1]
    else:
        overhead = (statistics.median(pass_seconds(r) for r in traced)
                    - statistics.median(pass_seconds(r) for r in plain))
        for name, unit in PER_LAYER:
            if name == "trace.overhead_s":
                vals = [overhead]
            else:
                vals = [r["layers"].get(name, 0) for r in traced]
            if unit in EXACT_UNITS and len(set(vals)) > 1:
                print(f"warning: {name} differs between traced passes: {vals}",
                      file=sys.stderr)
            metrics[name] = {"value": statistics.median(vals), "unit": unit}
            samples[name] = len(vals)
    print_table(workload, seed, passes, metrics, samples, out, failures)
    if not trace:
        walls = [sum(j["wall_s"] for j in r["jobs"]) for r in plain]
        print(f"unscaled wall times: run_s {statistics.median(walls):.6g} s, "
              f"setup_s {statistics.median(s for _, r in passes for s in r['setup_walls']):.6g} s")
    if trace:
        metrics = {name: metrics[name] for name, _ in RESULT_LAYER}
    out["metrics"] = metrics
    return out


def print_table(workload, seed, passes, metrics, samples, out, failures) -> None:
    n_traced = sum(t for t, _ in passes)
    print(f"# {workload} seed={seed}: {len(passes) - n_traced} untraced and "
          f"{n_traced} traced passes")
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:>14.6g} {m['unit']:9s} n={samples[name]}")
        if name == "job_s_p90":
            beyond = sum(j["s"] > m["value"] for _, r in passes for j in r["jobs"])
            print(f"{'':40s} {beyond:>14d} jobs beyond p90")
    frac = out["failed"] / out["attempted"]
    print(f"{'fail_frac':40s} {frac:>14.6g} {'ratio':9s} "
          f"n={out['attempted']} ({out['failed']} failed)")
    for key in sorted({j["key"] for j in failures}):
        j = next(f for f in failures if f["key"] == key)
        print(f"  failed [{j['grade']}] {key}: {j.get('error', 'output differs')}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(jobs_mod.WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (jobs_mod.SRC / "umbralog" / "__init__.py").is_file():
        print(f"no umbralog package under {jobs_mod.SRC}", file=sys.stderr)
        return 2
    names = sorted(jobs_mod.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {w: summarize(w, args.seed, args.seconds, bool(args.trace))
                   for w in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
