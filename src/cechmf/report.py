"""Machine-readable verification reports."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field


@dataclass
class Check:
    id: str
    passed: bool
    detail: str = ""
    payload: dict | None = None

    def as_dict(self):
        out = {"id": self.id, "passed": self.passed, "detail": self.detail}
        if self.payload is not None:
            out["payload"] = self.payload
        return out


@dataclass
class Report:
    scene: str
    seed: int
    trunc: int
    window: int
    todd_sign: int
    ledger_version: str
    suites: list = field(default_factory=list)  # (suite name, [Check], seconds)

    def add_suite(self, name: str, checks: list, seconds: float):
        self.suites.append((name, checks, seconds))

    @property
    def ok(self) -> bool:
        return all(c.passed for _, checks, _ in self.suites for c in checks)

    def counts(self):
        total = sum(len(checks) for _, checks, _ in self.suites)
        failed = sum(
            1 for _, checks, _ in self.suites for c in checks if not c.passed
        )
        return total, failed

    def as_dict(self, include_timings: bool = False):
        # timings are opt-in so that reports with equal inputs are
        # byte-identical across runs
        out = {
            "scene": self.scene,
            "seed": self.seed,
            "trunc": self.trunc,
            "window": self.window,
            "todd_sign": self.todd_sign,
            "sign_ledger_version": self.ledger_version,
            "ok": self.ok,
            "suites": [
                {
                    "suite": name,
                    "checks": [c.as_dict() for c in checks],
                }
                for name, checks, _ in self.suites
            ],
        }
        if include_timings:
            for entry, (_, _, seconds) in zip(out["suites"], self.suites):
                entry["seconds"] = round(seconds, 3)
        return out

    def to_json(self, include_timings: bool = False) -> str:
        return json.dumps(self.as_dict(include_timings), sort_keys=True, indent=2)

    def to_text(self) -> str:
        lines = [f"scene {self.scene}  seed {self.seed}  N {self.trunc}  D {self.window}"]
        for name, checks, seconds in self.suites:
            n_fail = sum(1 for c in checks if not c.passed)
            status = "PASS" if n_fail == 0 else f"FAIL({n_fail})"
            lines.append(f"[{status}] {name}: {len(checks)} checks in {seconds:.2f}s")
            for c in checks:
                if not c.passed:
                    lines.append(f"    FAIL {c.id}: {c.detail}")
                    if c.payload:
                        for k, v in sorted(c.payload.items()):
                            lines.append(f"        {k}: {v}")
        total, failed = self.counts()
        lines.append(f"total {total} checks, {failed} failed")
        return "\n".join(lines)


class Timer:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *a):
        self.seconds = time.perf_counter() - self.t0
