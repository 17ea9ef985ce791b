"""In-memory span recorder for the traced benchmark passes.

``install`` wraps each layer's public functions and methods at every name
callers bind them under (module globals and class attributes), so calls
made inside ``umbralog`` are seen as well as the benchmark's own.  Each
call is a span: name, start, end, parent span and job id.  ``layer_metrics``
derives self time (a span's duration minus its children's) and the
per-layer counts once the pass is over.  Every duration is scaled by its
job's host-speed factor (see ``worker.py``), like the end-to-end times.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import statistics
from array import array
from fractions import Fraction
from time import perf_counter

MODULES = (
    "series", "parampoly", "polys", "asymptotic", "umbral", "presets",
    "ncwords", "operators", "grading", "stirling", "sheffer", "conjugation",
    "report", "verify", "cli",
)


class Recorder:
    def __init__(self):
        self.ids: dict = {}
        self.names: list = []
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.job = array("l")
        self.stack = [-1]
        self.job_id = -1
        self.max_coeff_bits = 0
        self.word_count = 0
        self.family_inputs: set = set()
        self.limit_failed = 0

    def open(self, name: str) -> int:
        nid = self.ids.get(name)
        if nid is None:
            nid = self.ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.job.append(self.job_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()

    def wrap(self, fn, name, after=None, on_error=None):
        """``name`` is a string or a function of the call's arguments."""
        rec = self
        name_of = name if callable(name) else (lambda args: name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = rec.open(name_of(args))
            try:
                result = fn(*args, **kwargs)
            except Exception:
                rec.close(idx)
                if on_error is not None:
                    on_error()
                raise
            rec.close(idx)
            if after is not None:
                after(args, result)
            return result

        return traced

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "names": self.names,
                    "name": self.name.tolist(),
                    "start": self.start.tolist(),
                    "end": self.end.tolist(),
                    "parent": self.parent.tolist(),
                    "job": self.job.tolist(),
                },
                fh,
            )


def install(rec: Recorder) -> None:
    """Wrap the layers' entry points for the rest of the process."""
    m = {name: importlib.import_module(f"umbralog.{name}") for name in MODULES}
    PowerSeries = m["series"].PowerSeries
    ParamPoly = m["parampoly"].ParamPoly
    Poly = m["polys"].Poly

    def bits(_args, result):
        for c in result.coeffs:
            if isinstance(c, Fraction):
                b = max(c.numerator.bit_length(), c.denominator.bit_length())
                if b > rec.max_coeff_bits:
                    rec.max_coeff_bits = b

    def words(_args, result):
        rec.word_count += len(result.terms)

    def family_input(args, _result):
        f = args[0]
        rec.family_inputs.add((f.var, f.coeffs))

    def limit_failed():
        rec.limit_failed += 1

    def mul_name(args):
        a, b = args
        if not isinstance(b, PowerSeries):
            return "series.mul.scalar"
        kinds = {type(a.czero), type(b.czero), type(a.coeffs[0]), type(b.coeffs[0])}
        if PowerSeries in kinds:
            return "series.mul.nested"
        if ParamPoly in kinds:
            return "series.mul.parampoly"
        if Poly in kinds:
            return "series.mul.poly"
        return "series.mul.fraction"

    # original function -> wrapper, rebound wherever the original is bound
    wrappers: dict = {}

    def add(fn, name, **hooks):
        wrappers[id(fn)] = rec.wrap(fn, name, **hooks)

    add(PowerSeries.compose, "series.compose", after=bits)
    add(PowerSeries.revert, "series.revert", after=bits)
    add(PowerSeries.__mul__, mul_name)
    add(PowerSeries.__truediv__, "series.div")
    add(PowerSeries.exp, "series.explog")
    add(PowerSeries.log, "series.explog")
    add(ParamPoly.__mul__, "parampoly.mul")
    add(m["umbral"].build_family, "umbral.build_family", after=family_input)
    add(m["umbral"].p_seq, "umbral.p_seq")
    add(m["umbral"].q_table, "umbral.q_table")
    add(m["ncwords"].head_word_poly, "ncwords.head_word_poly", after=words)
    add(m["operators"].build_Tn, "operators.build_Tn")
    add(m["operators"].word_to_diffop, "operators.word_to_diffop")
    add(m["stirling"].stirling_terms, "stirling.stirling_terms")
    add(m["stirling"].verify_log_identity, "stirling.verify_log_identity")
    add(m["stirling"].limit_check, "stirling.limit_check", on_error=limit_failed)
    add(m["sheffer"].tau_seq, "sheffer.tau_seq")
    add(m["grading"].ratio_resolvent, "grading.ratio_resolvent")
    for layer in ("conjugation", "report", "presets", "asymptotic", "polys"):
        for fn in _public_functions(m[layer]):
            add(fn, layer)

    for mod in m.values():
        for attr, value in list(vars(mod).items()):
            if id(value) in wrappers:
                setattr(mod, attr, wrappers[id(value)])
            elif inspect.isclass(value) and value.__module__ == mod.__name__:
                for cattr, cvalue in list(vars(value).items()):
                    if id(cvalue) in wrappers:
                        setattr(value, cattr, wrappers[id(cvalue)])


def _public_functions(mod):
    """Public module-level functions and plain methods of classes defined in mod."""
    for name, value in vars(mod).items():
        if getattr(value, "__module__", None) != mod.__name__ or name.startswith("_"):
            continue
        if inspect.isfunction(value):
            yield value
        elif inspect.isclass(value):
            for cname, cvalue in vars(value).items():
                if inspect.isfunction(cvalue) and not cname.startswith("_"):
                    yield cvalue


# -- derived metrics --------------------------------------------------------------

def job_scale(rec: Recorder, i: int, scale: list) -> float:
    """Host-speed factor of span i's job; 1 for a span outside any job."""
    job = rec.job[i]
    return scale[job] if job >= 0 else 1.0


def self_times(rec: Recorder, scale: list) -> tuple:
    """(calls, self seconds) per span name; ``scale[j]`` is job j's factor."""
    n = len(rec.start)
    child = [0.0] * n
    for i in range(n):
        p = rec.parent[i]
        if p >= 0:
            child[p] += rec.end[i] - rec.start[i]
    calls = [0] * len(rec.names)
    self_s = [0.0] * len(rec.names)
    for i in range(n):
        nid = rec.name[i]
        calls[nid] += 1
        self_s[nid] += (rec.end[i] - rec.start[i] - child[i]) * job_scale(rec, i, scale)
    return (dict(zip(rec.names, calls)), dict(zip(rec.names, self_s)))


def order_exponents(rec: Recorder, family_jobs: dict, scale: list) -> dict:
    """Scaling exponents from the two orders each family is built at.

    ``family_jobs`` maps a job id to its (spec, order).  For each spec with
    two orders, the exponent is ln(t_hi/t_lo) / ln(order_hi/order_lo); the
    reported value is the median over specs.
    """
    cid = rec.ids.get("series.compose")
    bid = rec.ids.get("umbral.build_family")
    n = len(rec.start)
    inside = bytearray(n)  # 1 if the span lies within a compose span
    build, compose = {}, {}
    for i in range(n):
        p = rec.parent[i]
        inside[i] = p >= 0 and (inside[p] or rec.name[p] == cid)
        key = family_jobs.get(rec.job[i])
        if key is None:
            continue
        dur = (rec.end[i] - rec.start[i]) * job_scale(rec, i, scale)
        if rec.name[i] == bid:
            build[key] = build.get(key, 0.0) + dur
        elif rec.name[i] == cid and not inside[i]:
            compose[key] = compose.get(key, 0.0) + dur

    def fit(times):
        per_spec: dict = {}
        for (spec, order), t in times.items():
            per_spec.setdefault(spec, []).append((order, t))
        exps = [
            math.log(t2 / t1) / math.log(o2 / o1)
            for pts in per_spec.values() if len(pts) == 2
            for (o1, t1), (o2, t2) in [sorted(pts)]
        ]
        return statistics.median(exps) if exps else 0.0

    return {
        "series.compose.order_exponent": fit(compose),
        "umbral.build_family.order_exponent": fit(build),
    }


def layer_metrics(rec: Recorder, jobs: list, job_seconds: list, scale: list) -> dict:
    """Per-layer metrics of one traced pass; ``jobs[i]`` ran as job id i,
    took ``job_seconds[i]`` (scaled) with host-speed factor ``scale[i]``."""
    calls, self_s = self_times(rec, scale)
    out = {f"{name}.calls": n for name, n in calls.items()}
    out.update({f"{name}.self_s": t for name, t in self_s.items()})
    out["series.max_coeff_bits"] = rec.max_coeff_bits
    out["ncwords.word_count"] = rec.word_count
    builds = calls.get("umbral.build_family", 0)
    out["umbral.build_family.distinct_ratio"] = (
        len(rec.family_inputs) / builds if builds else 0.0
    )
    out["stirling.limit_check.failed"] = rec.limit_failed
    for job, sec in zip(jobs, job_seconds):
        if job[0] in ("suite", "cli"):
            name = ("verify.suite." if job[0] == "suite" else "cli.") + job[1] + ".s"
            out[name] = out.get(name, 0.0) + sec
    family_jobs = {i: (j[1], j[2]) for i, j in enumerate(jobs) if j[0] == "family"}
    out.update(order_exponents(rec, family_jobs, scale))
    return out
