"""Machine-readable check reports with lossless serialization.

Rationals render as decimal-free "num/den" strings; series as ordered
coefficient arrays with an explicit order field; JSON uses stable key
order so reports diff cleanly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

from .series import PowerSeries


def fmt_q(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def series_obj(u: PowerSeries) -> dict:
    def enc(c):
        if isinstance(c, Fraction):
            return fmt_q(c)
        if isinstance(c, PowerSeries):
            return series_obj(c)
        return str(c)

    return {"var": u.var, "order": u.order, "coeffs": [enc(c) for c in u.coeffs]}


@dataclass
class CheckRecord:
    name: str
    status: str            # "pass" | "fail" | "info"
    exact: bool = True     # exact checks drive the process exit status
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "exact": self.exact,
            "details": self.details,
        }

    @staticmethod
    def from_dict(d: dict) -> "CheckRecord":
        return CheckRecord(d["name"], d["status"], d["exact"], d["details"])


@dataclass
class Report:
    suite: str
    checks: list = field(default_factory=list)
    seconds: float = 0.0

    def record(self, name: str, ok: bool, exact: bool = True, **details):
        self.checks.append(
            CheckRecord(name, "pass" if ok else "fail", exact, details)
        )
        return ok

    def info(self, name: str, **details):
        self.checks.append(CheckRecord(name, "info", False, details))

    @property
    def exact_ok(self) -> bool:
        return all(c.status == "pass" for c in self.checks if c.exact)

    @property
    def all_ok(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "checks": [c.to_dict() for c in self.checks],
            "seconds": self.seconds,
        }

    @staticmethod
    def from_dict(d: dict) -> "Report":
        return Report(
            d["suite"],
            [CheckRecord.from_dict(c) for c in d["checks"]],
            d["seconds"],
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "Report":
        return Report.from_dict(json.loads(text))

    def render_text(self) -> str:
        lines = [f"suite {self.suite}: "
                 f"{'ok' if self.all_ok else 'FAILURES'} "
                 f"({self.seconds:.2f}s)"]
        for c in self.checks:
            mark = {"pass": "ok  ", "fail": "FAIL", "info": "info"}[c.status]
            kind = "" if c.exact else " [trend/report]"
            lines.append(f"  [{mark}] {c.name}{kind}")
            if c.status == "fail":
                for k, v in c.details.items():
                    lines.append(f"         {k}: {v}")
        return "\n".join(lines)
