"""Record ``reference.json``: the exact-output digest of every job any seed
can draw, taken from the program as it stands.

    python3 perfbench/record.py                  # record every job
    python3 perfbench/record.py --fill --src DIR # digests for jobs that raised

A job that raises is stored with the error it raised, type and message.
``--fill`` runs the jobs that raised against another source tree (``DIR``
holding the ``umbralog`` package) and stores the digest of the output
they give there; the seed's raise stays recorded as ``seed_raises``,
which the benchmark counts as a failure but not as a wrong result.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import jobs as jobs_mod


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--src", default=str(jobs_mod.SRC))
    p.add_argument("--fill", action="store_true")
    args = p.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))
    import umbralog
    import umbralog.cli

    print(f"recording against {umbralog.__file__}", file=sys.stderr)
    jobs_mod.OUT_DIR.mkdir(parents=True, exist_ok=True)
    if args.fill:
        ref = jobs_mod.load_reference()
    else:
        ref = {"keys": [], "jobs": {}}
    seen = set(ref["keys"])

    def keep(name):
        if name in jobs_mod.DROP:
            return False
        seen.add(name)
        return True

    state: dict = {}
    for job in jobs_mod.all_jobs():
        key = jobs_mod.job_key(job)
        entry = ref["jobs"].get(key, {})
        if args.fill and "raises" not in entry and job[0] != "family":
            continue
        try:
            output = jobs_mod.run_job(job, umbralog, state)
        except Exception as exc:
            if not args.fill:
                ref["jobs"][key] = {"raises": jobs_mod.error_text(exc)}
            print(f"{key}: {jobs_mod.error_text(exc)}", file=sys.stderr)
            continue
        d = jobs_mod.digest(output, keep)
        if not args.fill:
            ref["jobs"][key] = {"digest": d}
        elif "raises" in entry:
            ref["jobs"][key] = {"digest": d, "seed_raises": entry["raises"]}
    ref["keys"] = sorted(seen)
    with open(jobs_mod.REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    unresolved = [k for k, e in ref["jobs"].items() if "digest" not in e]
    print(f"{len(ref['jobs'])} jobs recorded, {len(unresolved)} without a digest",
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
