"""Command line front end.

Flags mirror the keys of the flat key=value config file, which takes no
other key; flags win over the file.  --loop takes no report, format or
suite.  Exit codes: 0 all gated checks passed, 1 some check failed, 2
configuration error, including an unreadable config file and an unwritable
report or dump path.
"""

import argparse
import json as _json
import os
import sys

from .bogoliubov import implementation_residual
from .errors import ConfigError, LoopfockError
from .linalg import dump_matrix, maxabs
from .loops import is_half_supported, lift, loop_from_bivectors
from .report import SUITE_NAMES, RunConfig
from .suites import Environment, run


def _parse_args(argv):
    ap = argparse.ArgumentParser(prog="loopfock",
                                 description="Numerical verification suites for the lattice "
                                             "loop model and its operator algebras.")
    ap.add_argument("--config", help="flat key=value file with the same keys as the flags")
    ap.add_argument("--points", type=int, help="number of circle vertices (= 2n, even)")
    ap.add_argument("--dim", type=int, help="internal dimension d")
    ap.add_argument("--seed", type=int, help="64-bit seed for all sampled checks")
    ap.add_argument("--suite", action="append", choices=SUITE_NAMES + ("all",),
                    help="suite to run (repeatable; default: all)")
    ap.add_argument("--tol", type=float, help="pass gate for checks without a stricter stated bound")
    ap.add_argument("--report", help="report file path")
    ap.add_argument("--format", choices=("json", "md"), help="report format")
    ap.add_argument("--dump", help="write model matrices (generators, grading, Lagrangian) to this path")
    ap.add_argument("--loop", help="loop literal: JSON (inline or a file path) with one "
                                   "bivector-coordinate list per vertex; prints lift diagnostics")
    return ap.parse_args(argv)


def _read_config_file(path):
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise ConfigError(f"config file {path} is not UTF-8 text") from None
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"bad config line: {line!r}")
        key, _, val = line.partition("=")
        values[key.strip()] = val.strip()
    return values


_NUMBER_KEYS = {"points": int, "dim": int, "seed": int, "tol": float}
# RunConfig field of each key whose value passes through as it is
_FIELDS = {"dim": "d", "seed": "seed", "tol": "gate", "report": "report_path",
           "format": "report_format", "dump": "dump_path"}


def build_config(argv):
    args = _parse_args(argv)
    keys = set(vars(args)) - {"config"}
    values = _read_config_file(args.config) if args.config else {}
    unknown = sorted(set(values) - keys)
    if unknown:
        raise ConfigError(f"unknown key {', '.join(unknown)} in config file {args.config}; "
                          f"the keys are the flag names {', '.join(sorted(keys))}")
    for key in keys - {"suite"}:
        flag = getattr(args, key)
        if flag is not None:
            values[key] = flag
    if args.suite:
        values["suite"] = ",".join(args.suite)
    clash = [f"--{key}" for key in ("report", "format", "suite") if key in values]
    if "loop" in values and clash:
        raise ConfigError(f"--loop runs no suite and writes no report; drop {', '.join(clash)}")
    for key, kind in _NUMBER_KEYS.items():
        if key in values:
            try:
                values[key] = kind(values[key])
            except ValueError:
                expected = "an integer" if kind is int else "a number"
                raise ConfigError(f"{key}={values[key]} is not {expected}") from None
    kwargs = {field: values[key] for key, field in _FIELDS.items() if key in values}
    if "points" in values:
        points = values["points"]
        if points < 2 or points % 2 == 1:
            raise ConfigError("--points must be a positive even vertex count (= 2n)")
        kwargs["n"] = points // 2
    if "suite" in values:
        suites = tuple(s for s in str(values["suite"]).split(",") if s)
        if "all" in suites:
            suites = SUITE_NAMES
        kwargs["suites"] = suites
    loop_literal = values.get("loop")
    return RunConfig(**kwargs).validate(), loop_literal


def _write_dump(config, path):
    env = Environment(config)
    model = env.model
    try:
        fh = open(path, "w")
    except OSError as exc:
        raise ConfigError(f"cannot write dump file {path}: {exc.strerror}") from None
    with fh:
        dump_matrix(model.lagrangian, fh, name="lagrangian")
        dump_matrix(model.grading, fh, name="grading")
        for i, g in enumerate(model.generators):
            point, axis = divmod(i, model.d)
            dump_matrix(g, fh, name=f"generator vertex {point} axis {axis}")


def _describe_loop(config, literal):
    """Lift a loop literal and print its diagnostics."""
    text = literal
    if os.path.exists(literal):
        try:
            with open(literal) as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read loop file {literal}: {exc.strerror}") from None
        except UnicodeDecodeError:
            raise ConfigError(f"loop file {literal} is not text") from None
    try:
        coords = _json.loads(text)
    except ValueError as exc:
        raise ConfigError(f"loop literal is not valid JSON: {exc}") from None
    except RecursionError:
        raise ConfigError("loop literal is nested too deeply") from None
    env = Environment(config)
    model, spin = env.model, env.spin
    if not isinstance(coords, list) or len(coords) != 2 * config.n:
        raise ConfigError(f"loop literal must list {2 * config.n} vertices")
    try:
        loop = loop_from_bivectors(spin, coords)
        ext = lift(model, spin, loop, env.tol)
    except (LoopfockError, ValueError) as exc:
        raise ConfigError(str(exc)) from None
    U, g, s = ext.unitary, ext.implementer.implemented, model.grading_signs
    print(f"loop lift: implementer residual {implementation_residual(model, U, g):.3e}, "
          f"parity {ext.implementer.parity}, "
          f"vacuum overlap {U[0, 0]:.6f}, "
          f"grading commutator {maxabs(U * s - s[:, None] * U):.3e}, "
          f"half supported: {is_half_supported(loop, env.tol)}")
    if config.dump_path:
        with open(config.dump_path, "a") as fh:
            dump_matrix(ext.unitary, fh, name="loop implementer")
    return 0


def main(argv=None):
    try:
        config, loop_literal = build_config(sys.argv[1:] if argv is None else argv)
        if config.dump_path:
            _write_dump(config, config.dump_path)
        if loop_literal is not None:
            return _describe_loop(config, loop_literal)
        code, records, summary = run(config)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    for r in records:
        status = "info" if r.exploratory else ("pass" if r.passed else "FAIL")
        error = f" error {r.error}" if r.error else ""
        print(f"[{status:4s}] {r.suite:10s} {r.name:38s} residual {r.residual:.3e}{error}")
    print(f"{summary['passed']} passed, {summary['failed']} failed, "
          f"{summary['exploratory']} exploratory.")
    if config.report_path:
        print(f"report written to {config.report_path}")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
