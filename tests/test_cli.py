"""Tests for config parsing, result emission and the CLI commands."""

import dataclasses
import json

import numpy as np
import pytest

from mimoce.cli import (
    CSV_HEADER,
    ConfigParseError,
    EXIT_CONFIG_ERROR,
    EXIT_OK,
    emit_results,
    main,
    parse_config,
    validate_config,
)
from mimoce.config import ConfigInvalid, EstimatorSpec, ExperimentConfig, SweepSpec, SystemConfig
from mimoce.harness import NmseResult

FAST_CONFIG = """
system:
  cells: 1
  ues_per_cell: 2
  antennas: 6
  tau_p: 3
  tau_u: 4
  noise_power: 0.2
estimators:
  - kind: mmse_random
  - kind: gevd
    rank: 2
  - kind: ls_fixed
sweep:
  variable: T
  values: [10, 20]
monte_carlo_runs: 2
eval_blocks: 10
master_seed: 5
"""


# Every float field of SystemConfig; each must be finite.
FLOAT_FIELDS = (
    "uplink_power", "noise_power", "jammer_power", "jammer_angle_deg", "cell_radius",
    "ring_radius", "pathloss_exponent", "half_spread_deg", "cov_loading",
)


def test_float_fields_listed():
    fields = dataclasses.fields(SystemConfig)
    assert FLOAT_FIELDS == tuple(f.name for f in fields if f.type == "float")


@pytest.fixture
def fast_config_path(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text(FAST_CONFIG)
    return path


class TestParseConfig:
    def test_empty_file_gives_defaults(self, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text("")
        config = parse_config(path)
        assert config == ExperimentConfig()

    def test_full_config(self, fast_config_path):
        config = parse_config(fast_config_path)
        assert config.system.antennas == 6
        assert config.system.tau_c == 7
        assert [spec.label for spec in config.estimators] == [
            "mmse_random",
            "gevd_2",
            "ls_fixed",
        ]
        assert config.sweep.values == [10, 20]
        assert config.master_seed == 5

    def test_override(self, fast_config_path):
        config = parse_config(fast_config_path, overrides=["system.tau_p=2"])
        base = parse_config(fast_config_path)
        assert config.system.tau_p == 2
        assert config.system.tau_c == 6
        assert config.system.antennas == base.system.antennas

    def test_invalid_tau_p_names_invariant(self, fast_config_path):
        with pytest.raises(ConfigInvalid, match="tau_p >= 1"):
            parse_config(fast_config_path, overrides=["system.tau_p=0"])

    @pytest.mark.parametrize("value", [".inf", "-.inf", ".nan"])
    @pytest.mark.parametrize("field", FLOAT_FIELDS)
    def test_non_finite_float_names_invariant(self, fast_config_path, field, value):
        with pytest.raises(ConfigInvalid, match=f"violated invariant: {field} finite"):
            parse_config(fast_config_path, overrides=[f"system.{field}={value}"])

    @pytest.mark.parametrize("shipped", ["configs/desk_scale.yaml", "configs/full_scale.yaml"])
    def test_dumped_config_parses_back_equal(self, tmp_path, shipped):
        # Nested sections, the estimator list, int | None and list[int].
        import yaml

        config = parse_config(shipped)
        path = tmp_path / "dumped.yaml"
        path.write_text(yaml.safe_dump(config.to_dict()))
        assert parse_config(path) == config

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("system:\n  antenas: 4\n")
        with pytest.raises(ConfigParseError, match="antenas"):
            parse_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigParseError):
            parse_config(tmp_path / "nope.yaml")

    def test_malformed_yaml(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("system: [unclosed\n")
        with pytest.raises(ConfigParseError):
            parse_config(path)

    def test_bad_override_format(self, fast_config_path):
        with pytest.raises(ConfigParseError, match="key=value"):
            parse_config(fast_config_path, overrides=["system.tau_p"])


def sample_results():
    return [
        NmseResult("mmse_random", "T", 10, 0.123456789012345, -9.0848, 2, 0),
        NmseResult("gevd_2", "T", 10, 0.2, -6.9897, 2, 3),
    ]


class TestEmitResults:
    def test_empty_results(self, tmp_path):
        emit_results([], tmp_path, ExperimentConfig())
        csv = (tmp_path / "results.csv").read_text().strip().splitlines()
        assert csv == [CSV_HEADER]
        payload = json.loads((tmp_path / "results.json").read_text())
        assert payload["results"] == []
        assert "config" in payload

    def test_one_row_per_result(self, tmp_path):
        emit_results(sample_results(), tmp_path, ExperimentConfig())
        csv = (tmp_path / "results.csv").read_text().strip().splitlines()
        assert len(csv) == 3
        assert csv[0] == CSV_HEADER
        first = csv[1].split(",")
        assert first[0] == "mmse_random"
        assert first[1] == "T"

    def test_csv_json_round_trip_identical(self, tmp_path):
        results = sample_results()
        emit_results(results, tmp_path, ExperimentConfig())
        payload = json.loads((tmp_path / "results.json").read_text())
        csv_rows = (tmp_path / "results.csv").read_text().strip().splitlines()[1:]
        for row, entry, original in zip(csv_rows, payload["results"], results):
            fields = row.split(",")
            assert float(fields[3]) == entry["nmse"] == original.nmse
            assert float(fields[4]) == entry["nmse_db"] == original.nmse_db
            assert int(fields[5]) == entry["runs_aggregated"]

    def test_summary_ranks_by_nmse(self, tmp_path):
        emit_results(sample_results(), tmp_path, ExperimentConfig())
        summary = (tmp_path / "summary.txt").read_text()
        assert summary.index("mmse_random") < summary.index("gevd_2")


class TestValidate:
    def test_ok_report_includes_estimates(self):
        report = validate_config(ExperimentConfig())
        assert report.startswith("OK")
        assert "covariance storage" in report
        assert "simulated blocks per sweep: " in report

    def test_desk_scale_block_count(self):
        # Per run: the training batches of the longest window (1200
        # blocks; every shorter window is a prefix of them) and 200
        # held-out blocks under each of two pilot allocations.
        report = validate_config(parse_config("configs/desk_scale.yaml"))
        assert "simulated blocks per sweep: 16000" in report
        # Per worker thread: 175-block chunks, each chunk's receive samples
        # added to the Gram sums as they arrive.
        assert "batch buffers per worker thread: 11.0 MiB" in report

    def test_unsupported_layout_flagged(self):
        config = ExperimentConfig(system=SystemConfig(cells=3))
        report = validate_config(config)
        assert "ISSUES FOUND" in report
        assert "violated invariant: cells in (1, 7)" in report
        assert "batch buffers" not in report

    @pytest.mark.parametrize(
        "config, named",
        [
            (ExperimentConfig(system=SystemConfig(cells="7")), "system.cells must be int"),
            (
                ExperimentConfig(system=SystemConfig(ues_per_cell="5")),
                "system.ues_per_cell must be int",
            ),
            (ExperimentConfig(monte_carlo_runs=2.5), "monte_carlo_runs must be int"),
        ],
        ids=["cells_str", "ues_per_cell_str", "fractional_runs"],
    )
    def test_wrong_type_reports_first_invariant(self, config, named):
        # Reported without a traceback and without sizes of a config that
        # cannot run.
        report = validate_config(config)
        assert report.startswith("ISSUES FOUND")
        assert named in report
        assert "simulated blocks" not in report

    def test_full_scale_memory_estimate(self):
        config = parse_config("configs/full_scale.yaml")
        report = validate_config(config)
        assert "70 matrices of 100x100" in report
        # 20 runs of 1500 training blocks and 2 x 200 held-out blocks.
        assert "simulated blocks per sweep: 38000" in report
        # 28-block chunks; 89.8 MiB when every batch array was held whole.
        assert "batch buffers per worker thread: 8.1 MiB" in report
        # A tau_p sweep receives those blocks under each of its tau_p.
        config.sweep = SweepSpec(variable="tau_p", values=[5, 10])
        report = validate_config(config)
        assert "simulated blocks per sweep: 76000" in report
        # One tau_p's pilot receive at a time: the set of the larger one.
        assert "batch buffers per worker thread: 8.1 MiB" in report


class TestMain:
    def test_list_estimators(self, capsys):
        assert main(["list-estimators"]) == EXIT_OK
        out = capsys.readouterr().out
        for kind in ("mmse_random", "gevd", "gevd_impr", "ls_fixed", "mmse_fixed", "subt"):
            assert kind in out

    def test_config_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("system:\n  tau_p: 0\n")
        assert main(["run", "--config", str(path)]) == EXIT_CONFIG_ERROR
        assert "tau_p >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "override, named",
        [
            ("system=5", "system"),
            ("estimators=5", "estimators"),
            ("system.antennas=abc", "system.antennas"),
            ("sweep.values=[10, abc]", "sweep.values"),
            ("sweep.values=[10,", "sweep.values"),
            ("monte_carlo_runs=abc", "monte_carlo_runs"),
            ("estimators=[5]", "estimators[0]"),
            ("estimators=[{rank: 2}]", "estimators[0]"),
            ("estimators=[{kind: subt, rnk: 2}]", "unknown key(s) in estimators[0]: rnk"),
            ("sweep=[1]", "sweep must be a mapping"),
        ],
    )
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_malformed_value_exit_code(self, fast_config_path, capsys, command, override, named):
        argv = [command, "--config", str(fast_config_path), "--set", override]
        assert main(argv) == EXIT_CONFIG_ERROR
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize(
        "overrides, named",
        [
            (["system.tau_p=1", "estimators=[{kind: subt}]"], "tau_p >= 2"),
            (["system.tau_p=1", "estimators=[{kind: gevd, rank: 2}]"], "tau_p >= 2"),
            (["system.tau_p=1", "estimators=[{kind: gevd_impr, rank: 2}]"], "tau_p >= 2"),
            (["system.cells=3"], "cells in (1, 7)"),
            (["sweep.values=[20, 20]"], "sweep values distinct"),
        ],
        ids=[
            "tau_p_1_subt", "tau_p_1_gevd", "tau_p_1_gevd_impr", "cells_3",
            "repeated_sweep_value",
        ],
    )
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_broken_invariant_exit_code(
        self, fast_config_path, tmp_path, capsys, command, overrides, named
    ):
        argv = [command, "--config", str(fast_config_path)]
        for override in overrides:
            argv += ["--set", override]
        if command == "run":
            argv += ["--output", str(tmp_path / "out")]
        assert main(argv) == EXIT_CONFIG_ERROR
        assert f"violated invariant: {named}" in capsys.readouterr().err

    @pytest.mark.parametrize("field", FLOAT_FIELDS)
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_non_finite_float_exit_code(self, fast_config_path, tmp_path, capsys, command, field):
        argv = [command, "--config", str(fast_config_path), "--set", f"system.{field}=.inf"]
        if command == "run":
            argv += ["--output", str(tmp_path / "out")]
        assert main(argv) == EXIT_CONFIG_ERROR
        assert f"violated invariant: {field} finite" in capsys.readouterr().err

    def test_tau_p_1_allowed_without_data_driven_estimators(self, fast_config_path):
        overrides = ["--set", "system.tau_p=1",
                     "--set", "estimators=[{kind: mmse_random}, {kind: ls_fixed}]"]
        assert main(["validate", "--config", str(fast_config_path), *overrides]) == EXIT_OK

    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_nonpositive_workers_exit_code(self, fast_config_path, tmp_path, capsys, workers):
        argv = ["run", "--config", str(fast_config_path), "--workers", workers,
                "--output", str(tmp_path / "out")]
        assert main(argv) == EXIT_CONFIG_ERROR
        assert "--workers >= 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("below", [(), ("out",)], ids=["file", "below_a_file"])
    def test_unusable_output_fails_before_the_sweep(
        self, fast_config_path, tmp_path, capsys, monkeypatch, below
    ):
        # An output path that is a file, or lies below one, is a config
        # error found before the sweep runs, not after.
        import mimoce.cli as cli

        def never(config, workers=1):
            raise AssertionError("run_sweep was called")

        monkeypatch.setattr(cli, "run_sweep", never)
        blocker = tmp_path / "taken"
        blocker.write_text("")
        output = blocker.joinpath(*below)
        argv = ["run", "--config", str(fast_config_path), "--output", str(output)]
        assert main(argv) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot create output directory")
        assert str(output) in err
        assert blocker.read_text() == ""

    def test_missing_config_exit_code(self, tmp_path):
        assert main(["validate", "--config", str(tmp_path / "nope.yaml")]) == EXIT_CONFIG_ERROR

    def test_run_end_to_end_and_reproducible(self, fast_config_path, tmp_path, capsys):
        out1 = tmp_path / "out1"
        out2 = tmp_path / "out2"
        assert main(["run", "--config", str(fast_config_path), "--output", str(out1)]) == EXIT_OK
        assert main(
            ["run", "--config", str(fast_config_path), "--output", str(out2), "--workers", "3"]
        ) == EXIT_OK
        csv1 = (out1 / "results.csv").read_bytes()
        csv2 = (out2 / "results.csv").read_bytes()
        assert csv1 == csv2
        payload = json.loads((out1 / "results.json").read_text())
        assert payload["master_seed"] == 5
        assert len(payload["results"]) == 6  # 3 estimators x 2 sweep values

    def test_seed_flag_changes_results(self, fast_config_path, tmp_path):
        out1 = tmp_path / "s1"
        out2 = tmp_path / "s2"
        main(["run", "--config", str(fast_config_path), "--output", str(out1)])
        main(["run", "--config", str(fast_config_path), "--output", str(out2), "--seed", "99"])
        assert (out1 / "results.csv").read_text() != (out2 / "results.csv").read_text()
        payload = json.loads((out2 / "results.json").read_text())
        assert payload["master_seed"] == 99

    def test_negative_seed_flag_names_invariant(self, fast_config_path, tmp_path, capsys):
        out = tmp_path / "neg"
        code = main(
            ["run", "--config", str(fast_config_path), "--output", str(out), "--seed", "-1"]
        )
        assert code == EXIT_CONFIG_ERROR
        assert "master_seed >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_validate_command(self, fast_config_path, capsys):
        assert main(["validate", "--config", str(fast_config_path)]) == EXIT_OK
        assert "OK" in capsys.readouterr().out

    def test_json_config_reproduces_csv(self, fast_config_path, tmp_path):
        # the resolved config embedded in results.json is a complete recipe
        import yaml

        out1 = tmp_path / "first"
        main(["run", "--config", str(fast_config_path), "--output", str(out1)])
        payload = json.loads((out1 / "results.json").read_text())
        replay_config = tmp_path / "replay.yaml"
        replay_config.write_text(yaml.safe_dump(payload["config"]))
        out2 = tmp_path / "replay"
        main(["run", "--config", str(replay_config), "--output", str(out2)])
        assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()

    def test_numeric_failure_exit_code(self, fast_config_path, tmp_path, capsys, monkeypatch):
        import numpy as np

        import mimoce.cli as cli

        def boom(config, workers=1):
            raise np.linalg.LinAlgError("synthetic blow-up")

        monkeypatch.setattr(cli, "run_sweep", boom)
        argv = ["run", "--config", str(fast_config_path), "--output", str(tmp_path / "out")]
        assert main(argv) == 2
        assert "numeric failure" in capsys.readouterr().err
