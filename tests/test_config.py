"""Tests for configuration invariants and sweep plumbing."""

import re

import pytest

from mimoce.config import (
    ConfigInvalid,
    EstimatorSpec,
    ExperimentConfig,
    SweepSpec,
    SystemConfig,
)


class TestSystemConfig:
    def test_defaults_valid(self):
        SystemConfig().validate()

    def test_tau_c_derived(self):
        assert SystemConfig(tau_p=10, tau_u=40).tau_c == 50

    @pytest.mark.parametrize(
        "field,value,invariant",
        [
            ("tau_p", 0, "tau_p >= 1"),
            ("tau_u", 0, "tau_u >= 1"),
            ("antennas", 0, "antennas >= 1"),
            ("noise_power", 0.0, "noise_power > 0"),
            ("ring_radius", 300.0, "ring_radius < cell_radius"),
            ("half_spread_deg", 90.0, "half_spread_deg"),
        ],
    )
    def test_invariant_violations_named(self, field, value, invariant):
        config = SystemConfig(**{field: value})
        with pytest.raises(ConfigInvalid, match=invariant):
            config.validate()


class TestEstimatorSpec:
    def test_labels(self):
        assert EstimatorSpec("mmse_random").label == "mmse_random"
        assert EstimatorSpec("gevd", rank=30).label == "gevd_30"
        assert EstimatorSpec("gevd_impr", rank=8).label == "gevd_impr_8"

    def test_unknown_kind(self):
        with pytest.raises(ConfigInvalid, match="estimator kind"):
            EstimatorSpec("genie").validate(16)

    def test_rank_required_for_gevd(self):
        with pytest.raises(ConfigInvalid, match="rank"):
            EstimatorSpec("gevd").validate(16)
        with pytest.raises(ConfigInvalid, match="rank"):
            EstimatorSpec("gevd", rank=17).validate(16)

    def test_rank_forbidden_elsewhere(self):
        with pytest.raises(ConfigInvalid, match="no rank"):
            EstimatorSpec("ls_fixed", rank=4).validate(16)


class TestExperimentConfig:
    def test_defaults_valid(self):
        ExperimentConfig().validate()

    def test_duplicate_labels_rejected(self):
        config = ExperimentConfig(
            estimators=[EstimatorSpec("gevd", rank=8), EstimatorSpec("gevd", rank=8)]
        )
        with pytest.raises(ConfigInvalid, match="unique"):
            config.validate()

    def test_sweep_variable_checked(self):
        config = ExperimentConfig(sweep=SweepSpec(variable="snr", values=[1]))
        with pytest.raises(ConfigInvalid, match="sweep variable"):
            config.validate()

    def test_sweep_values_positive(self):
        config = ExperimentConfig(sweep=SweepSpec(variable="T", values=[0]))
        with pytest.raises(ConfigInvalid, match="positive"):
            config.validate()

    def test_sweep_values_distinct(self):
        config = ExperimentConfig(sweep=SweepSpec(variable="T", values=[40, 75, 40]))
        with pytest.raises(ConfigInvalid, match="sweep values distinct"):
            config.validate()

    @pytest.mark.parametrize(
        "overrides, named",
        [
            (dict(monte_carlo_runs=2.5), "monte_carlo_runs"),
            (dict(master_seed=True), "master_seed"),
            (dict(system=SystemConfig(tau_p="10")), "system.tau_p"),
            (dict(system=SystemConfig(noise_power="0.3")), "system.noise_power"),
            (dict(sweep=SweepSpec(values=[75, 150.0])), "sweep.values"),
            (dict(sweep=SweepSpec(values=75)), "sweep.values"),
            (dict(estimators=[EstimatorSpec("gevd", rank=8.0)]), "estimators[0].rank"),
        ],
        ids=[
            "float_int", "bool_int", "str_int", "str_float", "float_in_list", "not_a_list",
            "float_rank",
        ],
    )
    def test_field_types_named(self, overrides, named):
        # Checked before the invariants, which would compare a str with an int.
        with pytest.raises(ConfigInvalid, match=re.escape(f"{named} must be")):
            ExperimentConfig(**overrides).validate()

    def test_int_accepted_for_float_field(self):
        ExperimentConfig(system=SystemConfig(noise_power=1)).validate()

    def test_tau_p_sweep_needs_two(self):
        config = ExperimentConfig(sweep=SweepSpec(variable="tau_p", values=[1, 5]))
        with pytest.raises(ConfigInvalid, match="tau_p sweep"):
            config.validate()

    def test_system_for_replaces_sweep_variable(self):
        config = ExperimentConfig(sweep=SweepSpec(variable="T", values=[10]))
        assert config.system_for(123).blocks == 123
        assert config.system_for(123).tau_p == config.system.tau_p
        config = ExperimentConfig(sweep=SweepSpec(variable="tau_p", values=[5]))
        assert config.system_for(5).tau_p == 5
        assert config.system_for(5).blocks == config.system.blocks

    def test_to_dict_round_trips_fields(self):
        data = ExperimentConfig().to_dict()
        assert data["system"]["antennas"] == 32
        assert data["sweep"]["variable"] == "T"
        assert isinstance(data["estimators"], list)
