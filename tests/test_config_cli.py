import dataclasses
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

from rfharvest import (
    SolveReport,
    TransmissionSchedule,
    cli,
    max_harvest_schedule,
    future_impact_probe,
    replay,
    simulator,
    solve,
)
from rfharvest.cli import main
from rfharvest.config import experiment_config, load_config, parse_config
from rfharvest.exceptions import ConfigError, SolverError
from rfharvest.oracle import _brute_force_batch
from rfharvest.scheduling import _bits, _solve_batch

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

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

    @pytest.mark.parametrize("data, key", [
        ({"rate_model": "psychic"}, "rate_model"),
        ({"runs": 0}, "runs"),
        ({"scenario": {"initial_energy": 0.1, "packets": [[1.0]], "deadline": 2.0}},
         "scenario.packets"),
        # an integer key refuses a fraction or a bool, which int() would
        # truncate or take as 1
        ({"runs": 2.7}, "runs"),
        ({"seed": 3.9}, "seed"),
        ({"generator": {"packet_count": 3.5}}, "generator.packet_count"),
        ({"sweep": {"scenarios": 1.5}}, "sweep.scenarios"),
        ({"sweep": {"impact_epochs": [1.9]}}, "sweep.impact_epochs"),
        ({"runs": True}, "runs"),
        ({"runs": "2.7"}, "runs"),
        # finite parameters whose derived constants are not
        ({"circuit": {"capacitance": 1.0e+300, "v_max": 1.0e+10}}, "e_max"),
        ({"circuit": {"resistance": 1.0e+300, "capacitance": 1.0e+10}}, "tau"),
        ({"circuit": {"resistance": 1.0e-300, "capacitance": 1.0e-30, "v_max": 1.0e+15}},
         "tau"),
    ], ids=["rate_model", "runs", "scenario", "fractional_runs", "fractional_seed",
            "fractional_packet_count", "fractional_scenarios",
            "fractional_impact_epochs", "bool_runs", "quoted_fractional_runs",
            "infinite_e_max", "infinite_tau", "zero_tau"])
    def test_bad_values_rejected(self, data, key):
        with pytest.raises(ConfigError, match=key):
            parse_config(data)

    def test_integral_floats_accepted(self):
        config = parse_config({"runs": 30.0, "seed": 3.0,
                               "generator": {"packet_count": 8.0},
                               "sweep": {"scenarios": 2.0, "impact_epochs": [1.0, 5.0]}})
        assert (config.runs, config.seed, config.generator.packet_count,
                config.sweep.scenarios, config.sweep.impact_epochs) == (30, 3, 8, 2, (1, 5))
        assert type(config.runs) is int and type(config.sweep.impact_epochs[0]) is int

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.yaml")

    def test_invalid_yaml(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("foo: [unclosed")
        with pytest.raises(ConfigError):
            load_config(path)

    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.yaml")), ids=lambda p: p.name)
    def test_pure_python_loader_parses_the_same_config(self, monkeypatch, path):
        loaded = load_config(path)
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
        assert getattr(yaml, "CSafeLoader", None) is None
        pure = load_config(path)
        assert pure == loaded and repr(pure) == repr(loaded)

    @pytest.mark.parametrize("pure_python", [False, True], ids=["default", "pure_python"])
    def test_invalid_yaml_exits_2(self, monkeypatch, tmp_path, capsys, pure_python):
        if pure_python:
            monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
        path = tmp_path / "broken.yaml"
        path.write_text("foo: [unclosed")
        rc = main(["sweep", "--config", str(path), "--figure", "fig5",
                   "--out", str(tmp_path / "out")])
        assert rc == cli.EXIT_CONFIG
        assert "invalid YAML" in capsys.readouterr().err


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

    @pytest.mark.parametrize("command", [["oracle-check"],
                                         ["simulate", "--strategy", "max_harvest"]],
                             ids=["oracle-check", "simulate"])
    def test_non_finite_link_exits_2(self, tmp_path, capsys, command):
        path = tmp_path / "cfg.yaml"
        path.write_text(GENERATED + "link: {frequency: .nan}\n")
        rc = main([*command, "--config", str(path), "--rate-model", "link-budget",
                   "--out", str(tmp_path / "out")])
        assert rc == cli.EXIT_CONFIG
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", [["optimize"],
                                         ["simulate", "--strategy", "max_harvest"]],
                             ids=["optimize", "simulate"])
    def test_over_capacity_scenario_exits_2(self, tmp_path, capsys, command):
        # 0.2 J in a store of e_max = 0.15625 J, refused where it is parsed
        path = tmp_path / "full.yaml"
        path.write_text("scenario: {initial_energy: 0.2, packets: [[1.0, 5.0]], "
                        "deadline: 2.0}\n")
        rc = main([*command, "--config", str(path), "--out", str(tmp_path / "out")])
        assert rc == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error: scenario.initial_energy 0.2 J exceeds" in err
        assert "e_max = 0.15625 J" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["initial_energy", "deadline"])
    def test_scenario_without_a_key_exits_2(self, tmp_path, capsys, key):
        node = {"initial_energy": 0.1, "packets": [[1.0, 5.0]], "deadline": 2.0}
        del node[key]
        path = tmp_path / "partial.yaml"
        path.write_text(yaml.safe_dump({"scenario": node}))
        rc = main(["optimize", "--config", str(path), "--out", str(tmp_path / "out")])
        assert rc == cli.EXIT_CONFIG
        assert f"config error: scenario.{key} is required" in capsys.readouterr().err

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

    @pytest.mark.parametrize("strategy", ["optimal", "max_harvest", "tight_string", "online"])
    def test_subnormal_epoch_length_exits_2(self, tmp_path, capsys, strategy):
        # epochs of 5e-324 s: a full store spent in one is an infinite power
        path = tmp_path / "tiny.yaml"
        path.write_text("generator: {mean_epoch_length: 5.0e-324}\n")
        rc = main(["simulate", "--config", str(path), "--strategy", strategy,
                   "--out", str(tmp_path / "out")])
        assert rc == cli.EXIT_CONFIG
        assert "config error: mean_epoch_length 5e-324 s draws epochs so short" \
            in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize("model", ["normalized", "link-budget"])
    def test_fig8_solves_every_probe_in_one_batch(self, tmp_path, monkeypatch, model):
        # each base once and each perturbation, all in one batch; every
        # row is what future_impact_probe gives its probe alone
        path = tmp_path / "cfg.yaml"
        path.write_text("seed: 5\ngenerator: {packet_count: 6}\n"
                        "sweep: {impact_epochs: [1, 5], scenarios: 3}\n")
        batches = []

        def spied(scenarios, circuit, gain):
            batches.append(scenarios)
            return _solve_batch(scenarios, circuit, gain)

        monkeypatch.setattr(simulator, "_solve_batch", spied)
        assert main(["sweep", "--config", str(path), "--figure", "fig8", "--rate-model", model,
                     "--out", str(tmp_path / "out")]) == 0
        assert [len(scenarios) for scenarios in batches] == [3 + 3 * 2]
        monkeypatch.undo()
        run = load_config(path)
        point = experiment_config(dataclasses.replace(run, rate_model=model))
        rows = [line.split(",") for line in
                (tmp_path / "out" / "sweep_fig8.csv").read_text().splitlines()
                if not line.startswith("#")][1:]
        drawn = simulator._draw_scenarios(point, run.sweep.scenarios)
        for (index, d, delta_length, delta_packet, change, _) in rows:
            scenario = drawn[int(index)][0]
            assert change == repr(future_impact_probe(
                scenario, run.circuit, int(d), float(delta_length), float(delta_packet), model,
                run.link))

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

    @pytest.mark.parametrize("figure, sweep, message", [
        ("fig5", "{capacitances: [0.04, -0.06]}", "sweep.capacitances must list finite"),
        ("fig5", "{capacitances: [.nan]}", "sweep.capacitances must list finite"),
        ("fig6", "{epoch_lengths: [.inf]}", "sweep.epoch_lengths must list finite"),
        ("fig6", "{epoch_lengths: []}", "sweep.epoch_lengths must list finite"),
        ("fig8", "{impact_epochs: []}", "sweep.impact_epochs must not be empty"),
        ("fig8", "{scenarios: -1}", "sweep.scenarios must be >= 1"),
        ("fig8", "{scenarios: 0}", "sweep.scenarios must be >= 1"),
        # a finite epoch length that scales the drawn harvest past what the
        # scaled point accepts: its error names the sweep point
        ("fig6", "{epoch_lengths: [1.0e+308]}",
         "sweep point mean_epoch_length=1e+308: mean_harvest must be finite and >= 0"),
        ("fig5", "{epoch_lengths: [0.006, 1.0e+300]}",
         "sweep point mean_epoch_length=1e+300: every harvest draw exceeds the usable capacity"),
        # a finite capacitance whose R*C overflows
        ("fig5", "{capacitances: [0.04, 1.0e+308]}",
         "sweep point capacitance=1e+308: tau must be finite and > 0, got inf"),
    ], ids=["negative_capacitance", "nan_capacitance", "infinite_epoch_length",
            "no_epoch_lengths", "no_impact_epochs", "negative_scenarios", "no_scenarios",
            "overflowing_harvest", "overfull_harvest", "overflowing_tau"])
    def test_bad_sweep_axis_exits_2(self, tmp_path, capsys, figure, sweep, message):
        # refused before any point runs, not by a traceback or a CSV
        # without rows from the figure that reads the axis
        path = tmp_path / "cfg.yaml"
        path.write_text(f"runs: 2\nsweep: {sweep}\n")
        rc = main(["sweep", "--config", str(path), "--figure", figure,
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
                                           "{mean_harvest: .nan}",
                                           "{mean_epoch_length: 1.5e+308}",
                                           "{mean_epoch_length: 2.0e+307}",
                                           "{packet_count: .inf}"],
                             ids=["above_cap", "above_e_max", "lowest_draw_above_cap",
                                  "zero_epoch_length", "negative_harvest",
                                  "negative_packet_count", "infinite_epoch_length",
                                  "nan_harvest", "overflowing_epoch_draw",
                                  "overflowing_horizon", "infinite_packet_count"])
    def test_config_that_never_generates_exits_2(self, tmp_path, capsys, generator):
        path = tmp_path / "cfg.yaml"
        path.write_text(f"runs: 2\ngenerator: {generator}\n")
        rc = main(["sweep", "--config", str(path), "--figure", "fig6",
                   "--out", str(tmp_path / "out")])
        assert rc == cli.EXIT_CONFIG
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def greedy_batch(scenarios, circuit, gain):
    """A stand-in for _solve_batch that reports each scenario's greedy
    max-harvest replay, its schedule the powers the replay spent and its
    bits at the link's gain."""
    reports = []
    for scenario in scenarios:
        trace, _ = replay(max_harvest_schedule(scenario, circuit), scenario, circuit)
        powers = trace.consumed / scenario.epoch_lengths
        schedule = TransmissionSchedule(powers=tuple(powers),
                                        epoch_bounds=tuple(scenario.epoch_bounds))
        reports.append(SolveReport(
            schedule=schedule, trace=trace,
            throughput=float(_bits(powers, scenario.epoch_lengths, gain)), iterations=0,
            newton_decrement=0.0, terminal_residual_error=abs(trace.terminal_residual)))
    return reports


class TestOracleCheckCommand:
    def test_passes_on_small_instances(self, generated_config):
        assert main(["oracle-check", "--config", str(generated_config)]) == 0

    def test_twenty_seed_two_packet_batch(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("seed: 3\nruns: 20\ngenerator: {packet_count: 2}\n")
        assert main(["oracle-check", "--config", str(path)]) == 0

    @pytest.mark.parametrize("model", ["normalized", "link-budget"])
    def test_no_packets_prints_a_float_gap(self, tmp_path, capsys, model):
        # the oracle drains an empty horizon in closed form; its bits must
        # be a Python float, or the gap prints as np.float64(...)
        path = tmp_path / "cfg.yaml"
        path.write_text("runs: 20\ngenerator: {packet_count: 0}\n")
        assert main(["oracle-check", "--config", str(path), "--rate-model", model]) == 0
        out = capsys.readouterr().out
        assert "np.float64" not in out
        gap = out.split(": ", 1)[1].split()[0]
        assert repr(float(gap)) == gap

    def test_corrupted_tolerance_fails_with_gap(self, generated_config, capsys,
                                                monkeypatch):
        # a solver that hands back the greedy max-harvest schedule falls
        # measurably below the oracle, which must fail the check
        monkeypatch.setattr(cli, "_solve_batch", greedy_batch)
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
        seen = []

        def spy_oracle(scenarios, circuit, grid, gain=1.0):
            seen.extend([gain] * len(scenarios))
            return _brute_force_batch(scenarios, circuit, grid, gain)

        def spy_solver(scenarios, circuit, gain):
            seen.extend([gain] * len(scenarios))
            return _solve_batch(scenarios, circuit, gain)

        monkeypatch.setattr(cli, "_brute_force_batch", spy_oracle)
        monkeypatch.setattr(cli, "_solve_batch", spy_solver)
        assert main(["oracle-check", "--config", str(generated_config),
                     "--rate-model", "link-budget"]) == 0
        link_gain = load_config(generated_config).link.gain
        assert seen == [link_gain] * 8

    def test_corrupted_solver_fails_under_link_budget(self, generated_config,
                                                      capsys, monkeypatch):
        monkeypatch.setattr(cli, "_solve_batch", greedy_batch)
        rc = main(["oracle-check", "--config", str(generated_config),
                   "--rate-model", "link-budget"])
        assert rc == 4
        assert "worst gap" in capsys.readouterr().out

    def test_too_many_packets(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("generator: {packet_count: 4}\n")
        assert main(["oracle-check", "--config", str(path)]) == 2

    def test_one_batch_solves_every_instance(self, generated_config, monkeypatch):
        # no instance is solved alone; the batch gives each its lone report
        batches = []

        def spied(scenarios, circuit, gain):
            reports = _solve_batch(scenarios, circuit, gain)
            batches.append((scenarios, reports))
            return reports

        def alone(*args):
            raise AssertionError("oracle-check solved an instance alone")

        monkeypatch.setattr(cli, "_solve_batch", spied)
        monkeypatch.setattr(cli, "optimal_schedule", alone)
        assert main(["oracle-check", "--config", str(generated_config)]) == 0
        (scenarios, reports), = batches
        circuit = load_config(generated_config).circuit
        assert reports == [solve(scenario, circuit) for scenario in scenarios]

    def test_first_failing_instance_exits_3(self, generated_config, capsys, monkeypatch):
        # the first failure in instance order is the one reported
        def failing(scenarios, circuit, gain):
            reports = _solve_batch(scenarios, circuit, gain)
            for run in (1, 3):
                reports[run] = SolverError(f"instance {run} did not converge",
                                           diagnostics={"iterations": run})
            return reports

        monkeypatch.setattr(cli, "_solve_batch", failing)
        assert main(["oracle-check", "--config", str(generated_config)]) == 3
        err = capsys.readouterr().err
        assert "solver failure: instance 1 did not converge" in err
        assert "instance 3" not in err


class TestEntryPoint:
    def test_module_invocation(self, explicit_config, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "rfharvest.cli", "optimize",
             "--config", str(explicit_config), "--out", str(tmp_path / "o")],
            capture_output=True, text=True)
        assert result.returncode == 0
        assert "throughput" in result.stdout

    @pytest.mark.parametrize("command", [
        ["optimize"], ["simulate", "--strategy", "optimal"], ["sweep", "--figure", "fig6"],
        ["oracle-check"]], ids=["optimize", "simulate", "sweep", "oracle-check"])
    def test_negative_seed_override_exits_2(self, explicit_config, generated_config, tmp_path,
                                            capsys, command):
        # --seed is checked like the config's own seed, before any work
        config = explicit_config if command == ["optimize"] else generated_config
        rc = main([*command, "--config", str(config), "--seed", "-1",
                   "--out", str(tmp_path / "out")])
        assert rc == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error: seed must be >= 0" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_main_runs_many_times_in_one_process(self, generated_config, tmp_path, capsys):
        # main parses with one parser per process: a second round of the
        # same calls prints and exits as the first, and an override, a
        # refused argv or --version leaves nothing behind for the next call
        oracle = ["oracle-check", "--config", str(generated_config)]
        calls = [oracle,
                 [*oracle, "--seed", "5", "--rate-model", "link-budget"],
                 oracle,
                 [*oracle, "--figure", "fig5"],
                 ["--version"],
                 ["sweep", "--config", str(CONFIGS / "reference.yaml"), "--figure", "fig8",
                  "--out", str(tmp_path / "fig8")],
                 oracle]

        def run(argv):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        first = [run(argv) for argv in calls]
        csv = (tmp_path / "fig8" / "sweep_fig8.csv").read_bytes()
        assert [run(argv) for argv in calls] == first
        assert (tmp_path / "fig8" / "sweep_fig8.csv").read_bytes() == csv
        assert [code for code, *_ in first] == [0, 0, 0, 2, 0, 0, 0]
        assert first[0] == first[2] == first[6] != first[1]
        assert "unrecognized arguments: --figure fig5" in first[3][2]
        assert first[4][1] == f"rfharvest {cli.__version__}\n"
        assert cli._parser() is cli._parser()
        assert cli.build_parser() is not cli.build_parser()

    def test_import_leaves_scipy_out(self):
        # scipy is a test-only dependency; importing it would slow every
        # start of the package
        result = subprocess.run(
            [sys.executable, "-c",
             "import sys, rfharvest; print('scipy' in sys.modules)"],
            capture_output=True, text=True)
        assert result.returncode == 0
        assert result.stdout.strip() == "False"
