"""Workloads of the umbralog benchmark.

A workload is a list of jobs drawn from a fixed family pool by the run's
seed.  A job is one user-level request made through the public API
(``presets.family``, ``umbral.*``, ``stirling.*``, ``verify.SUITES``,
``cli.main``); it is a tuple whose first entry names its kind, and its
string form is the key of its exact-output digest in ``reference.json``.

The pool is finite so that every job any seed can draw has a reference
digest recorded once (see ``record.py``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import os
import random
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_build" / "perfbench"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

PRESETS = ("exp1", "geom", "nu")
# The pool's polys share their coefficients' heights and differ in signs:
# what a family costs depends mostly on the heights, so the work in a pass
# hardly depends on which polys the seed draws.
POOL_HEIGHTS = (2, 3, 5, 6)

# deep_family: two orders per family for the scaling fit, then on the
# higher one p_seq, a shallow Stirling expansion (so that the word layers
# deep_words targets have a time in every workload's traced run) and the
# limit statements.  The evaluation point 1/alpha must lie inside omega's
# disc of convergence: radius 1 for exp1, but 1/4 for geom and 1/e for nu,
# so alpha = 2 serves exp1 only.
FAMILY_ORDERS = (24, 36)
FAMILY_DEPTH = 3
LIMIT_N = 32
LIMITS = ("conclusion", "first", "second")

# deep_words: one family per spec at a low order, then at each depth the
# Stirling expansion, and the log identity checked on both routes.  At
# order 14 the family builds are about 2 % of a pass; the word operators
# take the rest.
WORD_ORDER = 14
WORD_DEPTHS = (4, 5, 6)

# verify_sweep: the suites that pass at seed (limits is deep_family's work),
# then each CLI subcommand at its default flags.
SUITES = ("series", "umbral", "operators", "stirling", "sheffer", "conjugation")
CLI_PER_SPEC = ("pseq", "omega", "q", "tn", "stirling", "sheffer")
CLI_SPECS = 8


def poly_pool() -> list:
    """The 16 dense ``poly:`` specs with coefficients 1, +-1/2, +-1/3,
    +-1/5, +-1/6: every sign pattern.  Small enough that 1/8 lies inside
    omega's disc."""
    return [
        "poly:1," + ",".join(str(Fraction(sign, k)) for sign, k in zip(signs, POOL_HEIGHTS))
        for signs in itertools.product((1, -1), repeat=len(POOL_HEIGHTS))
    ]


def limit_alpha(spec: str) -> int:
    return 2 if spec == "exp1" else 8


def deep_family_jobs(specs) -> list:
    lo, hi = FAMILY_ORDERS
    jobs = []
    for spec in specs:
        jobs += [("family", spec, lo), ("family", spec, hi), ("p_seq", spec, hi, LIMIT_N),
                 ("stirling", spec, hi, FAMILY_DEPTH)]
        jobs += [
            ("limit", spec, hi, which, limit_alpha(spec), LIMIT_N) for which in LIMITS
        ]
    return jobs


def deep_words_jobs(specs) -> list:
    jobs = []
    for spec in specs:
        jobs.append(("family", spec, WORD_ORDER))
        for d in WORD_DEPTHS:
            jobs += [("stirling", spec, WORD_ORDER, d), ("log_identity", spec, WORD_ORDER, d)]
    return jobs


def verify_sweep_jobs(specs) -> list:
    jobs = [("suite", name) for name in SUITES]
    jobs += [("cli", cmd, spec) for spec in specs for cmd in CLI_PER_SPEC]
    # α = 2, the limits default, is inside the safe range for exp1 only
    jobs += [("cli", "limits", "exp1"), ("cli", "verify", "umbral")]
    return jobs


# workload -> (seeded spec choice, job list for those specs)
WORKLOADS = {
    "deep_family": (
        lambda rng: list(PRESETS) + rng.sample(poly_pool(), 3),
        deep_family_jobs,
    ),
    "deep_words": (
        lambda rng: list(PRESETS) + rng.sample(poly_pool(), 3),
        deep_words_jobs,
    ),
    # the suites cover the presets; CLI jobs on the pool's polys cost alike,
    # so the seed hardly moves job_s_p50, which they set
    "verify_sweep": (
        lambda rng: rng.sample(poly_pool(), CLI_SPECS),
        verify_sweep_jobs,
    ),
}


def workload_jobs(workload: str, seed: int) -> list:
    pick, make = WORKLOADS[workload]
    return make(pick(random.Random(seed)))


def all_jobs() -> list:
    """Every job any seed can draw (each workload on every spec), each once,
    in a runnable order."""
    specs = list(PRESETS) + poly_pool()
    out: list = []
    for _, make in WORKLOADS.values():
        out += [j for j in make(specs) if j not in out]
    return out


def job_key(job: tuple) -> str:
    return "|".join(str(x) for x in job)


# -- running a job --------------------------------------------------------------


def run_job(job: tuple, api, state: dict):
    """Make the job's API call(s) and return the exact output.

    ``api`` is the imported ``umbralog`` package; ``state`` carries the
    families built earlier in the same pass to the jobs that use them.
    """
    kind = job[0]
    if kind == "family":
        _, spec, order = job
        fam = api.presets.family(spec, order)
        state[(spec, order)] = fam
        return fam
    if kind == "p_seq":
        _, spec, order, n = job
        return api.umbral.p_seq(state[(spec, order)], n)
    if kind == "limit":
        _, spec, order, which, alpha, n = job
        return api.stirling.limit_check(state[(spec, order)], which, Fraction(alpha), n)
    if kind == "stirling":
        _, spec, order, depth = job
        return api.stirling.stirling_terms(state[(spec, order)], depth)
    if kind == "log_identity":
        _, spec, order, depth = job
        fam = state[(spec, order)]
        return [api.stirling.verify_log_identity(fam, route, depth) for route in ("log", "exp")]
    if kind == "suite":
        return api.verify.SUITES[job[1]]()
    if kind == "cli":
        _, cmd, arg = job
        argv = [cmd, arg] if cmd == "verify" else [cmd, "--f", arg]
        path = OUT_DIR / f"cli-{os.getpid()}.json"
        try:
            rc = api.cli.main(argv + ["--json", "--out", str(path)])
            with open(path) as fh:
                return {"rc": rc, "out": json.load(fh)}
        finally:
            path.unlink(missing_ok=True)
    raise ValueError(f"unknown job kind {kind!r}")


# -- canonical digest -----------------------------------------------------------

# Wall-clock fields, and the LimitReport field the seed never fills.
DROP = frozenset({"seconds", "extrapolated"})


def canon(x, keep):
    """Nested lists of strings: every rational as its "num/den" pair.

    ``keep(name)`` decides which dict keys and dataclass fields count, so
    that fields added after the reference was recorded are ignored.
    """
    if x is None or isinstance(x, (bool, float)):
        return repr(x)
    if isinstance(x, int):
        return str(x)
    if isinstance(x, str):
        return x
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, (list, tuple)):
        return [canon(v, keep) for v in x]
    if isinstance(x, dict):
        items = [(canon(k, keep), canon(v, keep)) for k, v in x.items()
                 if not isinstance(k, str) or keep(k)]
        return sorted(items, key=lambda kv: json.dumps(kv[0]))
    if dataclasses.is_dataclass(x):
        return [type(x).__name__] + [
            [f.name, canon(getattr(x, f.name), keep)]
            for f in dataclasses.fields(x) if keep(f.name)
        ]
    name = type(x).__name__
    if name == "PowerSeries":
        return ["PowerSeries", x.var, canon(x.coeffs, keep)]
    if name == "ParamPoly":
        return ["ParamPoly", sorted([list(map(str, k)), canon(v, keep)]
                                    for k, v in x.terms.items())]
    if name == "Poly":
        return ["Poly", canon(x.coeffs, keep)]
    if name == "PSequence":
        return ["PSequence", canon(x.polys, keep)]
    raise TypeError(f"no canonical form for {name}")


def digest(output, keep) -> str:
    text = json.dumps(canon(output, keep), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def load_reference(path: Path = REFERENCE) -> dict:
    with open(path) as fh:
        return json.load(fh)


def error_text(error: BaseException) -> str:
    return f"{type(error).__name__}: {error}"


def check(key: str, output, error: BaseException | None, reference: dict) -> str:
    """Grade one job against the seed's reference.

    ``ok``: the digest matches.  ``known``: the job raised the error, type
    and message, that the seed raises on it.  ``mismatch`` and ``error``
    are failures the seed did not have.
    """
    entry = reference["jobs"].get(key, {})
    if error is not None:
        return "known" if entry.get("seed_raises") == error_text(error) else "error"
    allowed = frozenset(reference["keys"])
    return "ok" if digest(output, allowed.__contains__) == entry.get("digest") else "mismatch"
