import subprocess
import sys

import pytest

from rfharvest import (
    SolveReport,
    brute_force_optimize,
    cli,
    max_harvest_schedule,
    optimal_schedule,
    replay,
)
from rfharvest.cli import main
from rfharvest.config import load_config, parse_config
from rfharvest.exceptions import ConfigError, SolverError

EXPLICIT = """
circuit: {resistance: 750.0, capacitance: 0.68, v_max: 2.5}
seed: 7
runs: 4
scenario:
  initial_energy: 0.5
  packets:
    - [10.0, 5.0]
    - [20.0, 5.0]
  deadline: 30.0
"""

GENERATED = """
seed: 9
runs: 4
generator: {packet_count: 3}
"""


@pytest.fixture
def explicit_config(tmp_path):
    path = tmp_path / "explicit.yaml"
    path.write_text(EXPLICIT)
    return path


@pytest.fixture
def generated_config(tmp_path):
    path = tmp_path / "generated.yaml"
    path.write_text(GENERATED)
    return path


class TestConfigParsing:
    def test_defaults(self):
        config = parse_config({})
        assert config.circuit.resistance == 4000.0
        assert config.circuit.capacitance == 0.05
        assert config.link.frequency == 2.4e9
        assert config.link.noise_density == -174.0
        assert config.rate_model == "normalized"
        assert config.runs == 30
        assert config.scenario is None

    def test_explicit_scenario(self, explicit_config):
        config = load_config(explicit_config)
        assert config.scenario.n_packets == 2
        assert config.scenario.deadline == 30.0
        assert config.circuit.v_max == 2.5

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            parse_config({"nonsense": 1})
        with pytest.raises(ConfigError):
            parse_config({"circuit": {"resistance": 1.0, "tau": 5.0}})

    def test_bad_values_rejected(self):
        with pytest.raises(ConfigError):
            parse_config({"rate_model": "psychic"})
        with pytest.raises(ConfigError):
            parse_config({"runs": 0})
        with pytest.raises(ConfigError):
            parse_config({"scenario": {"initial_energy": 0.1,
                                       "packets": [[1.0]], "deadline": 2.0}})

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.yaml")

    def test_invalid_yaml(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("foo: [unclosed")
        with pytest.raises(ConfigError):
            load_config(path)


class TestOptimizeCommand:
    def test_writes_schedule_and_summary(self, explicit_config, tmp_path):
        out = tmp_path / "out"
        rc = main(["optimize", "--config", str(explicit_config),
                   "--out", str(out)])
        assert rc == 0
        lines = (out / "schedule.csv").read_text().splitlines()
        manifest = [l for l in lines if l.startswith("#")]
        assert any("config_sha256" in l for l in manifest)
        assert not any(("time" in l or "date" in l) for l in manifest)
        header = lines[len(manifest)]
        assert header.split(",")[:4] == ["epoch", "t_start", "t_end", "power"]
        assert lines[-1].startswith("summary,")

    def test_bit_identical_reruns(self, explicit_config, tmp_path):
        first, second = tmp_path / "a", tmp_path / "b"
        main(["optimize", "--config", str(explicit_config), "--out", str(first)])
        main(["optimize", "--config", str(explicit_config), "--out", str(second)])
        assert (first / "schedule.csv").read_bytes() \
            == (second / "schedule.csv").read_bytes()

    def test_csv_matches_library_solve_field_for_field(self, explicit_config,
                                                       tmp_path):
        from rfharvest import ChargeCircuit, EnergyScenario, solve
        out = tmp_path / "out"
        main(["optimize", "--config", str(explicit_config), "--out", str(out)])
        report = solve(
            EnergyScenario(initial_energy=0.5,
                           packets=((10.0, 5.0), (20.0, 5.0)), deadline=30.0),
            ChargeCircuit(resistance=750.0, capacitance=0.68, v_max=2.5))
        lines = [l for l in (out / "schedule.csv").read_text().splitlines()
                 if not l.startswith("#")]
        body = [line.split(",") for line in lines[1:]]
        for i, row in enumerate(body[:-1]):
            assert float(row[3]) == report.schedule.powers[i]
            assert float(row[4]) == report.trace.residuals[i]
            assert float(row[6]) == report.trace.consumed[i]
            if i < len(report.trace.harvested):
                assert float(row[5]) == report.trace.harvested[i]
        summary = body[-1]
        assert float(summary[-2]) == report.throughput
        assert float(summary[-1]) == report.terminal_residual_error

    def test_summary_names_the_rate_model(self, explicit_config, tmp_path,
                                          capsys):
        from rfharvest import ChargeCircuit, EnergyScenario, solve
        from rfharvest.simulator import ChannelLink
        scenario = EnergyScenario(initial_energy=0.5,
                                  packets=((10.0, 5.0), (20.0, 5.0)), deadline=30.0)
        circuit = ChargeCircuit(resistance=750.0, capacitance=0.68, v_max=2.5)
        link = ChannelLink(frequency=2.4e9, distance=3.048, bandwidth=1.0e7,
                           noise_density=-174.0)
        for model, gain in (("normalized", 1.0), ("link-budget", link.gain)):
            report = solve(scenario, circuit, gain)
            main(["optimize", "--config", str(explicit_config),
                  "--rate-model", model, "--out", str(tmp_path / model)])
            first = capsys.readouterr().out.splitlines()[0]
            assert first == (f"throughput {report.throughput!r} bits ({model}), "
                             f"terminal residual error "
                             f"{report.terminal_residual_error:.3e} J")

    def test_generated_config_needs_scenario(self, generated_config, tmp_path):
        rc = main(["optimize", "--config", str(generated_config),
                   "--out", str(tmp_path / "o")])
        assert rc == 2

    def test_malformed_config_writes_nothing(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("nonsense_key: 1\n")
        out = tmp_path / "never"
        rc = main(["optimize", "--config", str(bad), "--out", str(out)])
        assert rc == 2
        assert not out.exists()

    @pytest.mark.parametrize("edit", [("resistance: 750.0", "resistance: .nan"),
                                      ("initial_energy: 0.5", "initial_energy: .nan"),
                                      ("deadline: 30.0", "deadline: .inf")],
                             ids=["nan_resistance", "nan_initial_energy", "inf_deadline"])
    def test_non_finite_config_exits_2(self, tmp_path, capsys, edit):
        path = tmp_path / "cfg.yaml"
        path.write_text(EXPLICIT.replace(*edit))
        rc = main(["optimize", "--config", str(path), "--out", str(tmp_path / "out")])
        assert rc == cli.EXIT_CONFIG
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unsolvable_scenario_exits_3(self, explicit_config, tmp_path, capsys,
                                         monkeypatch):
        # a solver failure is exit 3, not a config error
        def failing(*args):
            raise SolverError("Newton method did not converge",
                              diagnostics={"iterations": 200, "newton_decrement": 1.0})

        monkeypatch.setattr(cli, "optimal_schedule", failing)
        rc = main(["optimize", "--config", str(explicit_config),
                   "--out", str(tmp_path / "o")])
        assert rc == 3
        assert "solver failure" in capsys.readouterr().err


class TestSimulateCommand:
    def test_zero_strategy_zero_throughput(self, generated_config, tmp_path):
        out = tmp_path / "out"
        rc = main(["simulate", "--config", str(generated_config),
                   "--strategy", "zero", "--out", str(out)])
        assert rc == 0
        lines = (out / "trace_zero.csv").read_text().splitlines()
        summary = lines[-1].split(",")
        assert float(summary[-2]) == 0.0

    def test_tight_string_trace_has_clamp_column(self, generated_config, tmp_path):
        out = tmp_path / "out"
        rc = main(["simulate", "--config", str(generated_config),
                   "--strategy", "tight_string", "--out", str(out)])
        assert rc == 0
        lines = (out / "trace_tight_string.csv").read_text().splitlines()
        header = [l for l in lines if l.startswith("epoch,")][0]
        assert "clamped" in header.split(",")

    def test_max_harvest_on_a_long_packet(self, tmp_path):
        # an 800 tau packet, whose target residual is below one ulp of
        # the store
        path = tmp_path / "long.yaml"
        path.write_text("scenario:\n"
                        "  initial_energy: 0.10722721203542228\n"
                        "  packets: [[9.057340364983462, 160000.0]]\n"
                        "  deadline: 10.057340364983462\n")
        for strategy in ("max_harvest", "optimal"):
            rc = main(["simulate", "--config", str(path), "--strategy", strategy,
                       "--out", str(tmp_path / "out")])
            assert rc == 0, strategy

    def test_unknown_strategy(self, generated_config, tmp_path):
        rc = main(["simulate", "--config", str(generated_config),
                   "--strategy", "warp-drive", "--out", str(tmp_path)])
        assert rc == 2

    def test_tight_string_rejects_explicit_scenario(self, explicit_config, tmp_path):
        rc = main(["simulate", "--config", str(explicit_config),
                   "--strategy", "tight_string", "--out", str(tmp_path)])
        assert rc == 2


class TestSweepCommand:
    def test_fig8_columns(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("seed: 5\nruns: 2\n"
                        "generator: {packet_count: 6}\n"
                        "sweep: {impact_epochs: [1, 5], scenarios: 2}\n")
        out = tmp_path / "out"
        rc = main(["sweep", "--config", str(path), "--figure", "fig8",
                   "--out", str(out)])
        assert rc == 0
        lines = (out / "sweep_fig8.csv").read_text().splitlines()
        header = [l for l in lines if not l.startswith("#")][0].split(",")
        assert header[:5] == ["scenario_index", "d", "length_delta",
                              "packet_delta", "relative_power_change"]
        data = [l for l in lines if not l.startswith("#")][1:]
        assert len(data) == 4  # 2 scenarios x 2 depths

    @pytest.mark.parametrize("sweep, message", [
        ("{impact_epochs: [0]}", "scenario 0: impact epoch d=0 must lie in [1, 6]"),
        ("{impact_epochs: [1], length_delta_fraction: -10}",
         "scenario 0, d=1: perturbation makes the scenario invalid"),
    ], ids=["zero_depth", "invalid_perturbation"])
    def test_fig8_bad_probe_exits_2(self, tmp_path, capsys, sweep, message):
        path = tmp_path / "cfg.yaml"
        path.write_text(f"generator: {{packet_count: 6}}\nsweep: {sweep}\n")
        rc = main(["sweep", "--config", str(path), "--figure", "fig8",
                   "--out", str(tmp_path / "out")])
        assert rc == cli.EXIT_CONFIG
        assert f"config error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_fig6_deterministic(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("seed: 5\nruns: 2\n"
                        "sweep: {epoch_lengths: [0.006, 0.01]}\n")
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["sweep", "--config", str(path), "--figure", "fig6",
                     "--out", str(a)]) == 0
        assert main(["sweep", "--config", str(path), "--figure", "fig6",
                     "--out", str(b)]) == 0
        assert (a / "sweep_fig6.csv").read_bytes() \
            == (b / "sweep_fig6.csv").read_bytes()

    def test_fig7_is_refused(self, generated_config, tmp_path, capsys):
        # fig7's curves are fig6's harvest columns
        with pytest.raises(SystemExit) as refused:
            main(["sweep", "--config", str(generated_config), "--figure", "fig7",
                  "--out", str(tmp_path / "out")])
        assert refused.value.code == 2
        assert "invalid choice: 'fig7'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("generator", ["{initial_energy: 0.156}",
                                           "{initial_energy: 0.2}",
                                           "{mean_harvest: 0.3}",
                                           "{mean_epoch_length: 0.0}",
                                           "{mean_harvest: -0.01}",
                                           "{packet_count: -1}",
                                           "{mean_epoch_length: .inf}",
                                           "{mean_harvest: .nan}"],
                             ids=["above_cap", "above_e_max", "lowest_draw_above_cap",
                                  "zero_epoch_length", "negative_harvest",
                                  "negative_packet_count", "infinite_epoch_length",
                                  "nan_harvest"])
    def test_config_that_never_generates_exits_2(self, tmp_path, capsys, generator):
        path = tmp_path / "cfg.yaml"
        path.write_text(f"runs: 2\ngenerator: {generator}\n")
        rc = main(["sweep", "--config", str(path), "--figure", "fig6",
                   "--out", str(tmp_path / "out")])
        assert rc == cli.EXIT_CONFIG
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestOracleCheckCommand:
    def test_passes_on_small_instances(self, generated_config):
        assert main(["oracle-check", "--config", str(generated_config)]) == 0

    def test_twenty_seed_two_packet_batch(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("seed: 3\nruns: 20\ngenerator: {packet_count: 2}\n")
        assert main(["oracle-check", "--config", str(path)]) == 0

    def test_corrupted_tolerance_fails_with_gap(self, generated_config, capsys,
                                                monkeypatch):
        # a solver that hands back the greedy max-harvest schedule falls
        # measurably below the oracle, which must fail the check
        def greedy(scenario, circuit, *args):
            schedule = max_harvest_schedule(scenario, circuit)
            trace, bits = replay(schedule, scenario, circuit)
            return SolveReport(schedule=schedule, trace=trace, throughput=bits,
                               iterations=0, newton_decrement=0.0,
                               terminal_residual_error=abs(trace.terminal_residual))

        monkeypatch.setattr(cli, "optimal_schedule", greedy)
        rc = main(["oracle-check", "--config", str(generated_config)])
        assert rc == 4
        assert "worst gap" in capsys.readouterr().out

    def test_link_budget_passes(self, generated_config, capsys):
        rc = main(["oracle-check", "--config", str(generated_config),
                   "--rate-model", "link-budget"])
        assert rc == 0
        assert "ok: solver matches" in capsys.readouterr().out

    def test_link_budget_checks_in_link_units(self, generated_config,
                                              monkeypatch):
        # both the solver and the oracle see the link's gain, not the
        # normalized problem
        from rfharvest.simulator import _snr_gain
        seen = []

        def spy_oracle(scenario, circuit, grid, gain=1.0):
            seen.append(gain)
            return brute_force_optimize(scenario, circuit, grid, gain)

        def spy_solver(scenario, circuit, *args):
            seen.append(_snr_gain(*args))
            return optimal_schedule(scenario, circuit, *args)

        monkeypatch.setattr(cli, "brute_force_optimize", spy_oracle)
        monkeypatch.setattr(cli, "optimal_schedule", spy_solver)
        assert main(["oracle-check", "--config", str(generated_config),
                     "--rate-model", "link-budget"]) == 0
        link_gain = load_config(generated_config).link.gain
        assert seen == [link_gain] * 8

    def test_corrupted_solver_fails_under_link_budget(self, generated_config,
                                                      capsys, monkeypatch):
        def greedy(scenario, circuit, *args):
            schedule = max_harvest_schedule(scenario, circuit)
            trace, bits = replay(schedule, scenario, circuit, *args)
            return SolveReport(schedule=schedule, trace=trace, throughput=bits,
                               iterations=0, newton_decrement=0.0,
                               terminal_residual_error=abs(trace.terminal_residual))

        monkeypatch.setattr(cli, "optimal_schedule", greedy)
        rc = main(["oracle-check", "--config", str(generated_config),
                   "--rate-model", "link-budget"])
        assert rc == 4
        assert "worst gap" in capsys.readouterr().out

    def test_too_many_packets(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("generator: {packet_count: 4}\n")
        assert main(["oracle-check", "--config", str(path)]) == 2


class TestEntryPoint:
    def test_module_invocation(self, explicit_config, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "rfharvest.cli", "optimize",
             "--config", str(explicit_config), "--out", str(tmp_path / "o")],
            capture_output=True, text=True)
        assert result.returncode == 0
        assert "throughput" in result.stdout

    def test_import_leaves_scipy_out(self):
        # scipy is a test-only dependency; importing it would slow every
        # start of the package
        result = subprocess.run(
            [sys.executable, "-c",
             "import sys, rfharvest; print('scipy' in sys.modules)"],
            capture_output=True, text=True)
        assert result.returncode == 0
        assert result.stdout.strip() == "False"
