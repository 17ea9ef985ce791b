"""Command-line front end.

Subcommands: pseq, omega, q, tn, stirling, limits, sheffer, verify.
Shared flags: --f <preset|poly:coeffs>, --order N, --depth K, --json,
--out PATH, --config PATH (a JSON file with the same keys as the flags;
explicit flags win).  ``verify`` exits nonzero if any exact check fails.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .ncwords import head_word_poly
from .operators import build_Tn
from .presets import family, parse_rational
from .report import fmt_q, series_obj
from .sheffer import (
    bernoulli_log_experiment,
    bernoulli_weight,
    tau_seq,
    theta_check,
)
from .stirling import limit_check, stirling_terms
from .umbral import p_seq, q_table
from .verify import SUITES, run_suites

# ``tn`` lists the 3^(n-1) head words of every grade n <= --depth; depth 9
# lists in about 3 s, and each further grade triples the time.
TN_MAX_DEPTH = 9


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument tree, built once: parsing leaves it unchanged."""
    p = argparse.ArgumentParser(
        prog="umbralog",
        description="exact umbral-calculus and log-expansion engine",
    )
    p.add_argument("--config", help="JSON file with default option values")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, order=12, depth=4):
        sp.add_argument("--f", default="exp1", help="family preset or poly:c1,c2,...")
        sp.add_argument("--order", type=int, default=order)
        sp.add_argument("--depth", type=int, default=depth)
        sp.add_argument("--json", action="store_true")
        sp.add_argument("--out", help="write output to a file instead of stdout")

    common(sub.add_parser("pseq", help="binomial-type polynomial sequence"))
    common(sub.add_parser("omega", help="the change-of-variable series"))
    common(sub.add_parser("q", help="q-coefficient table"))
    tn = sub.add_parser(
        "tn",
        help="graded word operators",
        description="The head words and the operator of each grade n <= "
        f"--depth. Grade n has 3^(n-1) words, so --depth is at most {TN_MAX_DEPTH}.",
    )
    common(tn, order=14, depth=2)
    common(sub.add_parser("stirling", help="generalized log expansion terms"),
           order=16, depth=4)
    lp = sub.add_parser("limits", help="limit-formula trend tables")
    common(lp, order=34, depth=0)
    lp.add_argument("--alpha", default="2")
    lp.add_argument("--n-max", type=int, default=32)
    common(sub.add_parser("sheffer", help="weighted sequences and their checks"),
           order=16, depth=6)
    vp = sub.add_parser("verify", help="run verification suites")
    vp.add_argument("suite", choices=sorted(SUITES) + ["all"])
    vp.add_argument("--order", type=int, default=None)
    vp.add_argument("--depth", type=int, default=None)
    vp.add_argument("--json", action="store_true")
    vp.add_argument("--out")
    return p


# The JSON types a --config file may give each option; other keys are ignored.
_CONFIG_TYPES = {
    "f": (str,),
    "order": (int,),
    "depth": (int,),
    "json": (bool,),
    "out": (str,),
    "alpha": (str, int),
    "n_max": (int,),
}


def _apply_config(args: argparse.Namespace, argv: list) -> argparse.Namespace:
    if not args.config:
        return args
    with open(args.config) as fh:
        conf = json.load(fh)
    if not isinstance(conf, dict):
        raise ValueError(f"config {args.config} must hold a JSON object")
    explicit = {a.split("=")[0].lstrip("-").replace("-", "_")
                for a in argv if a.startswith("--")}
    for key, value in conf.items():
        attr = key.replace("-", "_")
        kinds = _CONFIG_TYPES.get(attr)
        if kinds is None or not hasattr(args, attr) or attr in explicit:
            continue
        if type(value) not in kinds:
            names = " or ".join(k.__name__ for k in kinds)
            raise ValueError(f"config key {key!r} must be {names}, got {value!r}")
        setattr(args, attr, value)
    return args


def _check_sizes(args: argparse.Namespace) -> None:
    for name in ("order", "depth"):
        value = getattr(args, name, None)
        if value is not None and value < 0:
            raise ValueError(f"--{name} must be >= 0, got {value}")


def _emit(payload, args) -> None:
    """Write text as is, anything else as strict JSON (no NaN or Infinity)."""
    if isinstance(payload, str):
        text = payload
    else:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_pseq(args) -> int:
    fam = family(args.f, max(args.order + 1, 3))
    seq = p_seq(fam, args.order)
    if args.json:
        payload = {
            "f": args.f,
            "polys": [[fmt_q(c) for c in p.coeffs] for p in seq.polys],
        }
        _emit(payload, args)
    else:
        lines = [f"p_{n}(a) = {p!r}" for n, p in enumerate(seq.polys)]
        _emit("\n".join(lines), args)
    return 0


def cmd_omega(args) -> int:
    fam = family(args.f, args.order + 1)
    payload = {
        "f": args.f,
        "tau_f": series_obj(fam.tau_f),
        "omega": series_obj(fam.omega),
        "phi": series_obj(fam.phi),
    }
    if args.json:
        _emit(payload, args)
    else:
        _emit(
            "\n".join(
                [
                    f"f/f'  = {fam.tau_f!r}",
                    f"omega = {fam.omega!r}",
                    f"phi   = {fam.phi!r}",
                ]
            ),
            args,
        )
    return 0


def cmd_q(args) -> int:
    t_order = max(args.depth, 1)
    fam = family(args.f, args.order + t_order + 2)
    table = q_table(fam, args.order, t_order)
    if args.json:
        payload = {"f": args.f, "q": [series_obj(row) for row in table]}
        _emit(payload, args)
    else:
        _emit("\n".join(f"q_{n}^t(s) = {row!r}" for n, row in enumerate(table)), args)
    return 0


def cmd_tn(args) -> int:
    if args.depth > TN_MAX_DEPTH:
        raise ValueError(
            f"tn lists 3^(n-1) words per grade; --depth must be at most "
            f"{TN_MAX_DEPTH}, got {args.depth}"
        )
    fam = family(args.f, max(args.order, 4 * args.depth + 4))
    rows = []
    for n in range(args.depth + 1):
        words = head_word_poly(n)
        op = build_Tn(fam, n)
        rows.append(
            {
                "n": n,
                "words": [
                    {"word": list(w), "coefficient": fmt_q(c)}
                    for w, c in sorted(words.terms.items())
                ],
                "pretty": repr(words),
                "operator": {
                    str(j): series_obj(c) for j, c in sorted(op.terms.items())
                },
            }
        )
    if args.json:
        _emit({"f": args.f, "operators": rows}, args)
    else:
        lines = []
        for row in rows:
            lines.append(f"T_{row['n']} words: {row['pretty']}")
        _emit("\n".join(lines), args)
    return 0


def cmd_stirling(args) -> int:
    fam = family(args.f, max(args.order, args.depth * 2 + 8))
    st = stirling_terms(fam, max(args.depth, 2))
    payload = {
        "f": args.f,
        "leading": "s*ln(s/alpha)",
        "integral_term": series_obj(st.integral_term),
        "s1_regular": series_obj(st.s1_regular),
        "g": {str(k): series_obj(v) for k, v in sorted(st.g.items())},
    }
    if args.json:
        _emit(payload, args)
    else:
        lines = [
            "ln p_s(s/alpha) ~ s*ln(s/alpha) + s*R(alpha) + sum_k g_k(alpha) s^{2-k}",
            f"I(alpha) = {st.integral_term!r}",
            f"R(alpha) = {st.s1_regular!r}",
        ]
        for k, v in sorted(st.g.items()):
            lines.append(f"g_{k}(alpha) = {v!r}")
        _emit("\n".join(lines), args)
    return 0


def cmd_limits(args) -> int:
    n_max = args.n_max
    fam = family(args.f, max(args.order, n_max + 2))
    alpha = parse_rational(args.alpha)
    payload = {}
    for which in ("conclusion", "first", "second"):
        lr = limit_check(fam, which, alpha, n_max)
        payload[which] = {
            "quantity": lr.quantity,
            "target": lr.target,
            "samples": lr.samples,
            "errors": lr.errors,
            "ratios": lr.ratios,
            "monotone": lr.monotone,
            "extrapolated": lr.extrapolated,
            "target_floor": lr.target_floor,
        }
    if args.json:
        _emit(payload, args)
    else:
        lines = []
        for which, d in payload.items():
            lines.append(f"[{which}] {d['quantity']} -> {d['target']}")
            for (n, v), (_, e) in zip(d["samples"], d["errors"]):
                lines.append(f"   n={n:4d}  value={v}  |err|={e}")
            lines.append(f"   extrapolated = {d['extrapolated']}")
            lines.append(f"   target floor = {d['target_floor']}")
        _emit("\n".join(lines), args)
    return 0


def cmd_sheffer(args) -> int:
    fam = family(args.f, args.order)
    ell = bernoulli_weight(fam.order)
    sf = tau_seq(fam, ell, min(args.depth + 4, fam.order - 2))
    ok, det = theta_check(sf, min(8, len(sf.tau_polys) - 1))
    payload = {
        "f": args.f,
        "ell": "x/(e^x-1)",
        "tau": [[fmt_q(c) for c in p.coeffs] for p in sf.tau_polys],
        "eigen_check": {"ok": ok, **det},
        "bernoulli_experiment": bernoulli_log_experiment(args.depth),
    }
    if args.json:
        _emit(payload, args)
    else:
        lines = [f"tau_{n} = {p!r}" for n, p in enumerate(sf.tau_polys)]
        lines.append(f"eigen-operator check through n={det['n_max']}: "
                     f"{'ok' if ok else 'FAIL'}")
        exp = payload["bernoulli_experiment"]
        for name, c in exp["candidates"].items():
            lines.append(
                f"bernoulli-log candidate {name}: exact through depth "
                f"{c['exact_through_depth']}"
            )
        _emit("\n".join(lines), args)
    return 0


def cmd_verify(args) -> int:
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    reports = run_suites(names, args.order, args.depth)
    ok = all(r.exact_ok for r in reports)
    if args.json:
        _emit({"reports": [r.to_dict() for r in reports], "exact_ok": ok}, args)
    else:
        text = "\n".join(r.render_text() for r in reports)
        _emit(text + f"\n\nexact checks: {'all passed' if ok else 'FAILURES'}", args)
    return 0 if ok else 1


COMMANDS = {
    "pseq": cmd_pseq,
    "omega": cmd_omega,
    "q": cmd_q,
    "tn": cmd_tn,
    "stirling": cmd_stirling,
    "limits": cmd_limits,
    "sheffer": cmd_sheffer,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        args = _apply_config(args, argv)
        _check_sizes(args)
        status = _run(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # the reader closed the output pipe: as Python's note on SIGPIPE
        # advises, point stdout at devnull so that the flush at exit is
        # silent, and end with the status a shell gives a SIGPIPE death
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _run(args) -> int:
    """Run one command; a result too long to print is reported as such."""
    try:
        return COMMANDS[args.command](args)
    except ValueError as exc:
        # str() of an int past sys.get_int_max_str_digits(): the commands
        # parse their inputs with messages of their own, so only printing a
        # result raises this one
        if "integer string conversion" not in str(exc):
            raise
        raise ValueError(
            "an output coefficient has more than "
            f"{sys.get_int_max_str_digits()} digits, more than can be printed"
        ) from None


if __name__ == "__main__":
    raise SystemExit(main())
