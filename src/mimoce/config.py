"""Experiment configuration objects and validation.

SystemConfig collects every scalar model parameter of the simulated
network; ExperimentConfig adds the estimator list, the sweep definition
and Monte-Carlo settings.  Defaults are the desk-scale profile (N=32,
L=7, K=5) that keeps the full experiment suite fast; configs/ ships a
full-scale profile (N=100, K=10, 20 runs) for full-size reproduction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, asdict, replace


class ConfigInvalid(ValueError):
    """Raised when a configuration violates an invariant; names the invariant."""


KNOWN_ESTIMATORS = {
    "mmse_random": "MMSE filter with true covariances under random pilot allocation",
    "subt": "MMSE-form filter using the subtraction covariance estimate",
    "gevd": "rank-limited approximate MMSE from the GEVD covariance estimate",
    "gevd_impr": "per-block improved approximate MMSE using intra-cell pilot knowledge",
    "ls_fixed": "least-squares baseline under fixed cyclic pilot allocation",
    "mmse_fixed": "MMSE with true covariances under fixed cyclic pilot allocation",
}

RANKED_KINDS = ("gevd", "gevd_impr")

# Kinds built from sample covariances of training blocks; separating the
# pilot covariance into its parts needs tau_p >= 2.
DATA_DRIVEN_KINDS = frozenset({"subt", "gevd", "gevd_impr"})

# Kinds under fixed cyclic pilot allocation, scored by their exact expected NMSE.
FIXED_KINDS = frozenset({"ls_fixed", "mmse_fixed"})

SWEEP_VARIABLES = ("T", "tau_p")

# Python types a value may have for each numeric field annotation of the
# config dataclasses; bool is rejected separately (it subclasses int).
_NUMERIC_TYPES = {
    "int": (int,),
    "float": (int, float),
    "int | None": (int, type(None)),
    "list[int]": (int,),
}


def _check_numeric(section, prefix: str = "") -> None:
    """Reject values of the wrong type for the numeric fields of the config
    dataclass `section`, naming each field by its dotted path."""
    for f in fields(section):
        if f.type not in _NUMERIC_TYPES:
            continue
        value = getattr(section, f.name)
        items = value if f.type.startswith("list") else [value]
        if not isinstance(items, list) or any(
            isinstance(v, bool) or not isinstance(v, _NUMERIC_TYPES[f.type])
            for v in items
        ):
            raise ConfigInvalid(
                f"violated invariant: {prefix}{f.name} must be {f.type}, got {value!r}"
            )


@dataclass
class SystemConfig:
    """Scalar model parameters of the simulated multicell network."""

    cells: int = 7
    ues_per_cell: int = 5
    antennas: int = 32
    tau_p: int = 10
    tau_u: int = 40
    blocks: int = 300
    uplink_power: float = 1.0
    noise_power: float = 0.3
    jammer_power: float = 0.0
    jammer_angle_deg: float = 0.0
    cell_radius: float = 250.0
    ring_radius: float = 140.0
    pathloss_exponent: float = 3.76
    half_spread_deg: float = 10.0
    cov_loading: float = 0.0

    @property
    def tau_c(self) -> int:
        return self.tau_p + self.tau_u

    def validate(self) -> None:
        checks = [
            *(
                (math.isfinite(getattr(self, f.name)), f"{f.name} finite")
                for f in fields(self)
                if f.type == "float"
            ),
            (self.cells in (1, 7), "cells in (1, 7)"),
            (self.ues_per_cell >= 1, "ues_per_cell >= 1"),
            (self.antennas >= 1, "antennas >= 1"),
            (self.tau_p >= 1, "tau_p >= 1"),
            (self.tau_u >= 1, "tau_u >= 1"),
            (self.blocks >= 1, "blocks >= 1"),
            (self.uplink_power > 0, "uplink_power > 0"),
            (self.noise_power > 0, "noise_power > 0"),
            (self.jammer_power >= 0, "jammer_power >= 0"),
            (self.cell_radius > 0, "cell_radius > 0"),
            (0 < self.ring_radius < self.cell_radius, "0 < ring_radius < cell_radius"),
            (self.pathloss_exponent > 0, "pathloss_exponent > 0"),
            (0 < self.half_spread_deg < 90, "0 < half_spread_deg < 90"),
            (self.cov_loading >= 0, "cov_loading >= 0"),
        ]
        for ok, name in checks:
            if not ok:
                raise ConfigInvalid(f"violated invariant: {name}")


@dataclass
class EstimatorSpec:
    """One estimator to evaluate; rank applies to the GEVD-based kinds."""

    kind: str
    rank: int | None = None

    @property
    def label(self) -> str:
        if self.kind in RANKED_KINDS:
            return f"{self.kind}_{self.rank}"
        return self.kind

    def validate(self, antennas: int) -> None:
        if self.kind not in KNOWN_ESTIMATORS:
            raise ConfigInvalid(
                f"violated invariant: estimator kind in {sorted(KNOWN_ESTIMATORS)}"
                f" (got {self.kind!r})"
            )
        if self.kind in RANKED_KINDS:
            if self.rank is None or not 1 <= self.rank <= antennas:
                raise ConfigInvalid(
                    f"violated invariant: 1 <= rank <= antennas for {self.kind}"
                )
        elif self.rank is not None:
            raise ConfigInvalid(f"violated invariant: {self.kind} takes no rank")


@dataclass
class SweepSpec:
    """Sweep one variable ('T' or 'tau_p') over a list of positive values."""

    variable: str = "T"
    values: list[int] = field(default_factory=lambda: [75, 150, 300, 600, 1200])

    def validate(self) -> None:
        if self.variable not in SWEEP_VARIABLES:
            raise ConfigInvalid(
                f"violated invariant: sweep variable in {SWEEP_VARIABLES}"
            )
        if not self.values:
            raise ConfigInvalid("violated invariant: sweep values non-empty")
        if any(v < 1 for v in self.values):
            raise ConfigInvalid("violated invariant: sweep values positive")
        if len(set(self.values)) != len(self.values):
            raise ConfigInvalid("violated invariant: sweep values distinct")


def default_estimators() -> list[EstimatorSpec]:
    return [
        EstimatorSpec("mmse_random"),
        EstimatorSpec("subt"),
        EstimatorSpec("gevd", rank=8),
        EstimatorSpec("gevd", rank=16),
        EstimatorSpec("gevd_impr", rank=8),
        EstimatorSpec("ls_fixed"),
        EstimatorSpec("mmse_fixed"),
    ]


@dataclass
class ExperimentConfig:
    """Full description of one Monte-Carlo NMSE experiment."""

    system: SystemConfig = field(default_factory=SystemConfig)
    estimators: list[EstimatorSpec] = field(default_factory=default_estimators)
    sweep: SweepSpec = field(default_factory=SweepSpec)
    monte_carlo_runs: int = 10
    eval_blocks: int = 200
    master_seed: int = 1

    def validate(self) -> None:
        # Types first: the invariants below compare values with numbers.
        _check_numeric(self)
        specs = self.estimators
        if not isinstance(specs, list):
            raise ConfigInvalid(f"violated invariant: estimators must be list, got {specs!r}")
        sections = [("system", self.system, SystemConfig), ("sweep", self.sweep, SweepSpec)]
        sections += [(f"estimators[{i}]", spec, EstimatorSpec) for i, spec in enumerate(specs)]
        for name, section, cls in sections:
            if not isinstance(section, cls):
                raise ConfigInvalid(
                    f"violated invariant: {name} must be {cls.__name__}, got {section!r}"
                )
            _check_numeric(section, f"{name}.")
        self.system.validate()
        self.sweep.validate()
        if self.monte_carlo_runs < 1:
            raise ConfigInvalid("violated invariant: monte_carlo_runs >= 1")
        if self.eval_blocks < 1:
            raise ConfigInvalid("violated invariant: eval_blocks >= 1")
        if self.master_seed < 0:
            raise ConfigInvalid("violated invariant: master_seed >= 0")
        if not self.estimators:
            raise ConfigInvalid("violated invariant: at least one estimator")
        labels = set()
        for spec in self.estimators:
            spec.validate(self.system.antennas)
            if spec.label in labels:
                raise ConfigInvalid(
                    f"violated invariant: estimator labels unique ({spec.label})"
                )
            labels.add(spec.label)
        if self.sweep.variable == "tau_p":
            # tau_p = 1 leaves the covariance separation undefined.
            if any(v < 2 for v in self.sweep.values):
                raise ConfigInvalid("violated invariant: tau_p sweep values >= 2")
        elif self.system.tau_p < 2 and any(
            spec.kind in DATA_DRIVEN_KINDS for spec in self.estimators
        ):
            raise ConfigInvalid(
                "violated invariant: tau_p >= 2 for data-driven estimators"
                f" ({', '.join(sorted(DATA_DRIVEN_KINDS))})"
            )

    def system_for(self, sweep_value: int) -> SystemConfig:
        """System parameters with the sweep variable replaced."""
        if self.sweep.variable == "T":
            return replace(self.system, blocks=int(sweep_value))
        return replace(self.system, tau_p=int(sweep_value))

    def to_dict(self) -> dict:
        out = asdict(self)
        out["sweep"]["values"] = list(self.sweep.values)
        return out
