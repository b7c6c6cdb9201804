"""Run configuration, check records, and report serialization."""

import json
import math
from dataclasses import dataclass

from .errors import ConfigError

SUITE_NAMES = ("clifford", "bogoliubov", "tomita", "two-group", "string", "rep")
SUITE_ORDER = {name: i for i, name in enumerate(SUITE_NAMES)}
MODES_CAP = 8   # largest n*d, i.e. Fock dimension 256


@dataclass(frozen=True)
class RunConfig:
    """One verification run: lattice size, tolerances, seed and output."""

    n: int = 2
    d: int = 2
    eq_tol: float = 1e-9
    rank_tol: float = 1e-11
    gate: float = 1e-8
    seed: int = 2024
    suites: tuple = SUITE_NAMES
    report_path: str | None = None
    report_format: str = "json"
    dump_path: str | None = None

    def validate(self):
        if self.n < 1 or self.d < 1:
            raise ConfigError("n and d must be positive")
        if (self.n * self.d) % 2 == 1:
            raise ConfigError(f"n*d = {self.n * self.d} is odd; the half-circle algebra would not be a factor")
        if self.n * self.d > MODES_CAP:
            raise ConfigError(f"n*d = {self.n * self.d} exceeds the cap {MODES_CAP} "
                              f"(Fock dimension 2^(n*d))")
        if not self.suites:
            raise ConfigError(f"no suite to run; choose from {SUITE_NAMES}")
        for s in self.suites:
            if s not in SUITE_NAMES:
                raise ConfigError(f"unknown suite {s!r}; choose from {SUITE_NAMES}")
        for key, path in (("report", self.report_path), ("dump", self.dump_path)):
            if path == "":
                raise ConfigError(f"{key} path is empty")
        if self.report_format not in ("json", "md"):
            raise ConfigError("format must be json or md")
        if not (0 <= self.rank_tol <= self.eq_tol):
            raise ConfigError("need 0 <= rank_tol <= eq_tol")
        if not (math.isfinite(self.gate) and self.gate > 0):
            raise ConfigError(f"gate (--tol) {self.gate} is not a positive finite number")
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigError(f"seed {self.seed} is not a 64-bit unsigned integer")
        return self

    def ordered_suites(self):
        return tuple(sorted(set(self.suites), key=SUITE_ORDER.__getitem__))


@dataclass
class CheckRecord:
    """Outcome of one verification check."""

    suite: str
    name: str
    anchor: str            # short label of the identity being verified
    residual: float
    tolerance: float       # +inf marks exploratory, never-gating records
    wall_time: float       # seconds since the previous record of the suite
    sample_count: int
    error: str | None = None   # what the suite raised, on its "<suite> aborted" record

    @property
    def exploratory(self):
        return math.isinf(self.tolerance)

    @property
    def passed(self):
        return bool(self.residual <= self.tolerance)

    def to_dict(self):
        out = {
            "suite": self.suite,
            "name": self.name,
            "anchor": self.anchor,
            "residual": None if math.isnan(self.residual) else self.residual,   # NaN: not computed
            "tolerance": None if self.exploratory else self.tolerance,
            "passed": self.passed,
            "wall_time": self.wall_time,
            "sample_count": self.sample_count,
        }
        if self.error is not None:
            out["error"] = self.error
        return out


def summarize(records):
    exploratory = sum(1 for r in records if r.exploratory)
    gated = [r for r in records if not r.exploratory]
    passed = sum(1 for r in gated if r.passed)
    return {
        "total": len(records),
        "passed": passed,
        "failed": len(gated) - passed,
        "exploratory": exploratory,
    }


def config_dict(config):
    return {
        "n": config.n,
        "d": config.d,
        "eq_tol": config.eq_tol,
        "rank_tol": config.rank_tol,
        "gate": config.gate,
        "seed": config.seed,
        "suites": list(config.ordered_suites()),
    }


def emit_report(config, records, fmt="json"):
    """Serialize the run; JSON is deterministic up to the wall_time fields."""
    if fmt == "json":
        payload = {
            "config": config_dict(config),
            "records": [r.to_dict() for r in records],
            "summary": summarize(records),
        }
        return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()
    if fmt == "md":
        return _markdown_report(config, records).encode()
    raise ConfigError(f"unknown format {fmt!r}")


def _markdown_report(config, records):
    lines = [f"# Verification report (n={config.n}, d={config.d}, seed={config.seed})", ""]
    summary = summarize(records)
    lines.append(f"{summary['passed']} passed, {summary['failed']} failed, "
                 f"{summary['exploratory']} exploratory, {summary['total']} total.")
    by_suite = {}
    for r in records:
        by_suite.setdefault(r.suite, []).append(r)
    for suite in sorted(by_suite, key=lambda s: SUITE_ORDER.get(s, 99)):
        lines += ["", f"## {suite}", "",
                  "| check | identity | residual | tolerance | status | samples |",
                  "|---|---|---|---|---|---|"]
        for r in by_suite[suite]:
            tol = "reported" if r.exploratory else f"{r.tolerance:.1e}"
            status = "info" if r.exploratory else ("pass" if r.passed else "FAIL")
            residual = r.error or f"{r.residual:.3e}"
            lines.append(f"| {r.name} | {r.anchor} | {residual} | {tol} | {status} | {r.sample_count} |")
    return "\n".join(lines) + "\n"


def strip_timing(report_bytes):
    """Report bytes with wall_time fields zeroed, for determinism comparisons."""
    payload = json.loads(report_bytes.decode())
    for rec in payload.get("records", []):
        rec["wall_time"] = 0.0
    return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()
