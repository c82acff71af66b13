"""Command-line front end: run sweeps, validate configs, list estimators.

Configuration files are YAML with nested sections (see README for the
canonical schema); every value can be overridden from the command line
with --set dotted.key=value.  Results are emitted as results.csv,
results.json (with the fully-resolved config for provenance) and a
plain-text summary.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import yaml

from .channel import build_geometry, bs_covariances
from .config import (
    ConfigInvalid,
    EstimatorSpec,
    ExperimentConfig,
    KNOWN_ESTIMATORS,
    SweepSpec,
    SystemConfig,
)
from .harness import NmseResult, run_sweep, simulated_blocks, thread_buffer_bytes

EXIT_OK = 0
EXIT_CONFIG_ERROR = 1
EXIT_RUNTIME_ERROR = 2

CSV_HEADER = "estimator,sweep_variable,sweep_value,nmse,nmse_db,runs,fallbacks"


class ConfigParseError(ValueError):
    """Raised when the config file cannot be parsed or has unknown keys."""


def _coerce(value: str):
    return yaml.safe_load(value)


# Python types a YAML value may have for each numeric field annotation of
# the config dataclasses; bool is rejected separately (it subclasses int).
_NUMERIC_TYPES = {
    "int": (int,),
    "float": (int, float),
    "int | None": (int, type(None)),
    "list[int]": (int,),
}


def _check_numeric(cls, data: dict, prefix: str) -> None:
    """Reject values of the wrong type for the numeric fields of cls."""
    for f in dataclasses.fields(cls):
        if f.name not in data or f.type not in _NUMERIC_TYPES:
            continue
        value = data[f.name]
        items = value if f.type.startswith("list") else [value]
        if not isinstance(items, list) or any(
            isinstance(v, bool) or not isinstance(v, _NUMERIC_TYPES[f.type])
            for v in items
        ):
            raise ConfigParseError(f"{prefix}{f.name} must be {f.type}, got {value!r}")


def _build_section(cls, data, section: str):
    if not isinstance(data, dict):
        raise ConfigParseError(
            f"section {section!r} must be a mapping, got {type(data).__name__}"
        )
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise ConfigParseError(
            f"unknown key(s) in section {section!r}: {', '.join(sorted(unknown))}"
        )
    _check_numeric(cls, data, f"{section}.")
    try:
        return cls(**data)
    except TypeError as exc:
        raise ConfigParseError(f"section {section!r}: {exc}") from exc


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
        target[parts[-1]] = _coerce(raw)

    top_known = {"system", "estimators", "sweep", "monte_carlo_runs", "eval_blocks", "master_seed"}
    unknown = set(data) - top_known
    if unknown:
        raise ConfigParseError(f"unknown top-level key(s): {', '.join(sorted(unknown))}")

    kwargs = {
        key: data[key]
        for key in ("monte_carlo_runs", "eval_blocks", "master_seed")
        if key in data
    }
    _check_numeric(ExperimentConfig, kwargs, "")
    if "system" in data:
        kwargs["system"] = _build_section(SystemConfig, data["system"], "system")
    if "sweep" in data:
        kwargs["sweep"] = _build_section(SweepSpec, data["sweep"], "sweep")
    if "estimators" in data:
        entries = data["estimators"]
        if not isinstance(entries, list):
            raise ConfigParseError(
                f"estimators must be a list of mappings, got {type(entries).__name__}"
            )
        kwargs["estimators"] = [
            _build_section(EstimatorSpec, entry, f"estimators[{i}]")
            for i, entry in enumerate(entries)
        ]

    config = ExperimentConfig(**kwargs)
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
    """Dry-run diagnostics: invariants, geometry, block count and memory."""
    findings = []
    try:
        config.validate()
    except ConfigInvalid as exc:
        findings.append(str(exc))
    sysc = config.system
    try:
        geometry = build_geometry(
            sysc.cells, sysc.ues_per_cell, sysc.cell_radius, sysc.ring_radius,
            sysc.pathloss_exponent, rng=0,
        )
        # Dry-run covariance construction at reduced antenna count.
        bs_covariances(geometry, 0, min(sysc.antennas, 8), np.deg2rad(sysc.half_spread_deg))
    except ValueError as exc:
        findings.append(f"{type(exc).__name__}: {exc}")

    matrices = sysc.cells * sysc.ues_per_cell
    cov_mb = matrices * sysc.antennas**2 * 16 / 1e6

    lines = [
        "OK" if not findings else "ISSUES FOUND:",
        *(f"  - {f}" for f in findings),
        f"covariance storage: {matrices} matrices of {sysc.antennas}x{sysc.antennas} "
        f"(~{cov_mb:.1f} MB)",
        f"simulated blocks per sweep: {simulated_blocks(config)}",
    ]
    if not findings:
        lines.append(
            f"batch buffers per worker thread: {thread_buffer_bytes(config) / 2**20:.1f} MiB"
        )
    return "\n".join(lines)


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
