"""Command-line front end: run sweeps, validate configs, list estimators.

Configuration files are YAML with nested sections; the config dataclasses
of `mimoce.config` are their only schema (README shows it with defaults).
Every value can be overridden from the command line with --set
dotted.key=value.  An unknown key, a section that is not a mapping or a
violated invariant is a config error that names it.  Results are emitted
as results.csv, results.json (with the fully-resolved config for
provenance) and a plain-text summary.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import typing
from pathlib import Path

import numpy as np
import yaml

from .config import ConfigInvalid, ExperimentConfig, KNOWN_ESTIMATORS
from .harness import NmseResult, run_sweep, simulated_blocks, thread_buffer_bytes

EXIT_OK = 0
EXIT_CONFIG_ERROR = 1
EXIT_RUNTIME_ERROR = 2

CSV_HEADER = "estimator,sweep_variable,sweep_value,nmse,nmse_db,runs,fallbacks"


class ConfigParseError(ValueError):
    """Raised when the config file cannot be parsed or has unknown keys."""


def _build(cls, data, where: str):
    """Build the config dataclass `cls` from the mapping `data`, whose
    dotted path is `where` (empty at the root).  A field typed as a config
    dataclass, or a list of one, is built the same way; every other value
    passes through for `ExperimentConfig.validate` to check."""
    place = where or "config root"
    if not isinstance(data, dict):
        raise ConfigParseError(f"{place} must be a mapping, got {type(data).__name__}")
    hints = typing.get_type_hints(cls)
    unknown = set(data) - set(hints)
    if unknown:
        raise ConfigParseError(f"unknown key(s) in {place}: {', '.join(sorted(unknown))}")
    kwargs = {}
    for key, value in data.items():
        path = f"{where}.{key}" if where else key
        hint = hints[key]
        args = typing.get_args(hint)
        if dataclasses.is_dataclass(hint):
            value = _build(hint, value, path)
        elif typing.get_origin(hint) is list and dataclasses.is_dataclass(args[0]):
            if not isinstance(value, list):
                raise ConfigParseError(
                    f"{path} must be a list of mappings, got {type(value).__name__}"
                )
            value = [_build(args[0], item, f"{path}[{i}]") for i, item in enumerate(value)]
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ConfigParseError(f"{place}: {exc}") from exc


def parse_config(path: str | Path, overrides: list[str] | None = None) -> ExperimentConfig:
    """Load a YAML experiment config, apply overrides, validate invariants."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigParseError(f"cannot read config file {path}: {exc}") from exc
    try:
        data = yaml.safe_load(text) or {}
    except yaml.YAMLError as exc:
        raise ConfigParseError(f"invalid YAML in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigParseError(f"config root must be a mapping, got {type(data).__name__}")

    for item in overrides or []:
        if "=" not in item:
            raise ConfigParseError(f"override must look like key=value, got {item!r}")
        key, raw = item.split("=", 1)
        target = data
        parts = key.strip().split(".")
        for part in parts[:-1]:
            target = target.setdefault(part, {})
            if not isinstance(target, dict):
                raise ConfigParseError(f"override key {key!r} does not address a section")
        try:
            target[parts[-1]] = yaml.safe_load(raw)
        except yaml.YAMLError as exc:
            raise ConfigParseError(f"invalid YAML value for {key}: {exc}") from exc

    config = _build(ExperimentConfig, data, "")
    config.validate()
    return config


def emit_results(results: list[NmseResult], output_dir: str | Path, config: ExperimentConfig) -> None:
    """Write results.csv, results.json and summary.txt into output_dir."""
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)

    lines = [CSV_HEADER]
    for r in results:
        lines.append(
            f"{r.estimator},{r.sweep_variable},{r.sweep_value},"
            f"{r.nmse:.17g},{r.nmse_db:.17g},{r.runs_aggregated},{r.fallback_count}"
        )
    (out / "results.csv").write_text("\n".join(lines) + "\n")

    payload = {
        "config": config.to_dict(),
        "master_seed": config.master_seed,
        "results": [dataclasses.asdict(r) for r in results],
    }
    (out / "results.json").write_text(json.dumps(payload, indent=2) + "\n")

    summary = []
    for value in dict.fromkeys(r.sweep_value for r in results):
        summary.append(f"{results[0].sweep_variable} = {value}")
        at_value = sorted(
            (r for r in results if r.sweep_value == value), key=lambda r: r.nmse
        )
        for rank, r in enumerate(at_value, start=1):
            summary.append(
                f"  {rank}. {r.estimator:<16s} nmse={r.nmse:.6e} ({r.nmse_db:+.2f} dB)"
                + (f"  fallbacks={r.fallback_count}" if r.fallback_count else "")
            )
    (out / "summary.txt").write_text("\n".join(summary) + "\n")


def validate_config(config: ExperimentConfig) -> str:
    """Report for `mimoce validate`: the first violated invariant, or OK
    with the covariance storage, the simulated blocks per sweep and the
    batch buffers per worker thread."""
    try:
        config.validate()
    except ConfigInvalid as exc:
        return f"ISSUES FOUND:\n  - {exc}"
    sysc = config.system
    matrices = sysc.cells * sysc.ues_per_cell
    cov_mb = matrices * sysc.antennas**2 * 16 / 1e6
    return "\n".join([
        "OK",
        f"covariance storage: {matrices} matrices of {sysc.antennas}x{sysc.antennas} "
        f"(~{cov_mb:.1f} MB)",
        f"simulated blocks per sweep: {simulated_blocks(config)}",
        f"batch buffers per worker thread: {thread_buffer_bytes(config) / 2**20:.1f} MiB",
    ])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mimoce",
        description="Uplink massive MIMO channel-estimation NMSE experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute the configured sweep")
    run.add_argument("--config", required=True, help="YAML experiment config")
    run.add_argument("--output", default="results", help="output directory")
    run.add_argument("--seed", type=int, default=None, help="override master seed")
    run.add_argument(
        "--set", dest="overrides", action="append", default=[],
        metavar="KEY=VALUE", help="override a config entry (repeatable)",
    )
    run.add_argument("--workers", type=int, default=1, help="parallel Monte-Carlo workers")

    val = sub.add_parser("validate", help="check a config and report its size")
    val.add_argument("--config", required=True)
    val.add_argument(
        "--set", dest="overrides", action="append", default=[], metavar="KEY=VALUE"
    )

    sub.add_parser("list-estimators", help="list available estimator kinds")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "list-estimators":
        for kind, description in KNOWN_ESTIMATORS.items():
            print(f"{kind:<12s} {description}")
        return EXIT_OK

    overrides = list(args.overrides)
    if getattr(args, "seed", None) is not None:
        overrides.append(f"master_seed={args.seed}")
    try:
        config = parse_config(args.config, overrides)
    except (ConfigParseError, ConfigInvalid) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR

    if args.command == "validate":
        print(validate_config(config))
        return EXIT_OK

    if args.workers < 1:
        print("config error: violated invariant: --workers >= 1", file=sys.stderr)
        return EXIT_CONFIG_ERROR

    # Before the sweep, so that a bad --output does not cost the sweep.
    try:
        Path(args.output).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"config error: cannot create output directory {args.output}: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR

    try:
        results = run_sweep(config, workers=args.workers)
    except (np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME_ERROR
    emit_results(results, args.output, config)
    print(f"wrote {Path(args.output) / 'results.csv'}")
    return EXIT_OK


def entrypoint() -> None:
    sys.exit(main())
