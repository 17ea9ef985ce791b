"""Machine-readable check reports with lossless serialization.

Rationals render as decimal-free "num/den" strings; series as ordered
coefficient arrays with an explicit order field; JSON uses stable key
order so reports diff cleanly.  Each check carries the wall-clock seconds
spent since the previous one (or since the report was created), and the
report's ``seconds`` is their running total.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter

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
    seconds: float = 0.0   # wall clock since the previous record

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "exact": self.exact,
            "details": self.details,
            "seconds": self.seconds,
        }

    @staticmethod
    def from_dict(d: dict) -> "CheckRecord":
        return CheckRecord(
            d["name"], d["status"], d["exact"], d["details"], d.get("seconds", 0.0)
        )


@dataclass
class Report:
    suite: str
    checks: list = field(default_factory=list)
    seconds: float = 0.0
    _mark: float = field(
        default_factory=perf_counter, init=False, repr=False, compare=False
    )

    def _add(self, check: CheckRecord) -> None:
        now = perf_counter()
        check.seconds = now - self._mark
        self._mark = now
        self.seconds += check.seconds
        self.checks.append(check)

    def record(self, name: str, ok: bool, exact: bool = True, **details):
        self._add(CheckRecord(name, "pass" if ok else "fail", exact, details))
        return ok

    def info(self, name: str, **details):
        self._add(CheckRecord(name, "info", False, details))

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
