"""One pass over a workload's job list, in a fresh interpreter.

    python3 perfbench/worker.py --workload deep_words --seed 1 [--trace 1]
        [--setup-only] [--spans PATH]

Each pass starts from a cold process, so nothing the program caches
carries from one pass to the next.  Jobs run one after another (a closed
loop with one client); each is timed alone, with a full garbage
collection and a host-speed probe between jobs outside the timed region.
Prints one JSON line: set-up time, peak resident memory, and per job its
key, seconds and grade against the reference; with tracing, also the
per-layer metrics.

Times are reported at a reference host speed.  The CPU this runs on is
shared: when another tenant loads it, the same work takes up to 1.7x as
long, and the host switches between such states every few seconds, so
every wall time moves and a median over one run does not remove it.
``SpeedMeter`` samples the host's speed while each job runs: a timer
signal every ``TICK_S`` seconds times ``probe``, a tiny fixed sum of
Fractions that runs no umbralog code, and a few probes run just before
and after the job.  A job's time is its wall time, less the time the
samples took, times ``REF_PROBE_S`` times the mean of 1/probe over its
samples, that is the job's wall time at the speed where the probe takes
``REF_PROBE_S``.  Set-up time is scaled the same way.  The wall times are
kept beside the scaled ones.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import signal
import statistics
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import jobs as jobs_mod

# About the probe's time on an uncontended core of the host the benchmark
# was tuned on (2 vCPUs of a shared 2.1 GHz Xeon), where it took about
# 95 us, against up to about 150 us under load: scaled times read about as
# that host's wall times when nothing else loads it.
REF_PROBE_S = 100e-6
TICK_S = 0.01      # one probe per 10 ms of a job: about 1.5 % of its time
EDGE_PROBES = 5    # probes before the first job and after each job


def probe() -> float:
    """Seconds for a fixed sum of 40 Fractions (operands up to ~50 bits)."""
    start = perf_counter()
    total = Fraction(0)
    for k in range(1, 40):
        total += Fraction(1, k)
    return perf_counter() - start


def edge_probes() -> list:
    return [probe() for _ in range(EDGE_PROBES)]


class SpeedMeter:
    """Samples the host's speed while work runs, on a wall-clock timer
    signal; the main thread runs each sample between two bytecodes."""

    def __init__(self):
        self.samples: list = []
        self.spent = 0.0
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame):
        start = perf_counter()
        self.samples.append(probe())
        self.spent += perf_counter() - start

    def start(self) -> None:
        self.samples, self.spent = [], 0.0
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self) -> tuple:
        """(the samples, the seconds they took) since ``start``."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        return self.samples, self.spent


def speed_factor(samples: list) -> float:
    """REF_PROBE_S over the probe's time, averaged as speeds (1/time), so
    that each sample weighs as the stretch of wall time it stands for."""
    return REF_PROBE_S * statistics.fmean(1 / t for t in samples)


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(jobs_mod.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spans", help="write the pass's spans here (traced only)")
    args = p.parse_args(argv)
    reference = jobs_mod.load_reference()
    jobs_mod.OUT_DIR.mkdir(parents=True, exist_ok=True)

    # set-up: import the program from this checkout and draw the inputs
    meter = SpeedMeter()
    meter.start()
    t0 = perf_counter()
    sys.path.insert(0, str(jobs_mod.SRC))
    import umbralog
    import umbralog.cli

    job_list = jobs_mod.workload_jobs(args.workload, args.seed)
    setup_wall = perf_counter() - t0
    ticks, spent = meter.stop()
    if Path(umbralog.__file__).resolve().parent != jobs_mod.SRC / "umbralog":
        print(f"umbralog imported from {umbralog.__file__}, not this checkout",
              file=sys.stderr)
        return 3
    setup_s = (setup_wall - spent) * speed_factor(ticks + edge_probes())
    result = {"setup_s": setup_s, "setup_wall_s": setup_wall}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    rec = None
    if args.trace:
        import spans

        rec = spans.Recorder()
        spans.install(rec)

    gc.collect()
    gc.freeze()
    state: dict = {}
    records = []
    sink = io.StringIO()
    before = edge_probes()
    for i, job in enumerate(job_list):
        key = jobs_mod.job_key(job)
        span = None
        if rec is not None:
            rec.job_id = i
            span = rec.open("job." + job[0])
        output, error = None, None
        meter.start()
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                output = jobs_mod.run_job(job, umbralog, state)
        except Exception as exc:
            error = exc
        sec = perf_counter() - start
        ticks, spent = meter.stop()
        after = edge_probes()
        factor = speed_factor(before + ticks + after)
        if span is not None:
            rec.close(span)
            rec.job_id = -1
        grade = jobs_mod.check(key, output, error, reference)
        entry = {"key": key, "s": (sec - spent) * factor, "wall_s": sec,
                 "factor": factor, "grade": grade}
        if error is not None:
            entry["error"] = f"{type(error).__name__}: {error}"
            if grade == "error":
                traceback.print_exception(error, file=sys.stderr)
        records.append(entry)
        sink.seek(0)
        sink.truncate()
        gc.collect()
        before = after

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["jobs"] = records
    if rec is not None:
        result["layers"] = spans.layer_metrics(
            rec, job_list, [e["s"] for e in records], [e["factor"] for e in records])
        if args.spans:
            rec.dump(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
