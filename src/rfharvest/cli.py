"""Command-line interface.

Four subcommands: ``optimize`` (offline-optimal schedule of an explicit
scenario), ``simulate`` (replay one strategy), ``sweep`` (Monte Carlo
figure reproductions), ``oracle-check`` (solver vs. brute force).  Every
output CSV starts with '#'-prefixed manifest lines (tool version, config
hash, seed) and is bit-identical across runs of the same config + seed.

Exit codes: 0 ok, 2 config error, 3 solver failure, 4 validation failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .config import config_hash, experiment_config, load_config
from .exceptions import ConfigError, GenerationError, SolverError
from .oracle import GridSpec, brute_force_optimize
from .scheduling import TransmissionSchedule
from .simulator import (
    STRATEGIES,
    _draw_scenarios,
    _snr_gain,
    evaluate_strategy,
    future_impact_probe,
    monte_carlo,
    optimal_schedule,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_VALIDATION = 4


@dataclass(frozen=True)
class RunManifest:
    """Provenance header embedded in every output CSV.

    Wall-clock timestamps are deliberately not written so that repeated
    runs of the same config + seed produce bit-identical files.
    """

    version: str
    command: str
    config_sha256: str
    seed: int
    rate_model: str

    def lines(self):
        return [
            f"# rfharvest {self.version}",
            f"# command: {self.command}",
            f"# config_sha256: {self.config_sha256}",
            f"# seed: {self.seed}",
            f"# rate_model: {self.rate_model}",
        ]


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _write_csv(path: Path, manifest: RunManifest, header, rows):
    lines = manifest.lines()
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


def _schedule_rows(schedule, trace, throughput=None, terminal_error=None):
    header = ["epoch", "t_start", "t_end", "power", "residual", "harvested",
              "consumed", "clamped", "throughput", "terminal_residual_error"]
    rows = []
    n_epochs = len(schedule.powers)
    clamped = trace.clamped or (False,) * n_epochs
    for i in range(n_epochs):
        harvested = trace.harvested[i] if i < len(trace.harvested) else ""
        rows.append([
            i + 1,
            schedule.epoch_bounds[i],
            schedule.epoch_bounds[i + 1],
            schedule.powers[i],
            trace.residuals[i],
            harvested,
            trace.consumed[i],
            int(bool(clamped[i])),
            "", "",
        ])
    summary = ["summary", "", "", "", "", "", "", "",
               throughput if throughput is not None else "",
               terminal_error if terminal_error is not None else ""]
    rows.append(summary)
    return header, rows


def _load(args):
    config = load_config(args.config)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    if args.rate_model is not None:
        config = replace(config, rate_model=args.rate_model)
    manifest_seed = config.seed
    return config, config_hash(args.config), manifest_seed


def cmd_optimize(args) -> int:
    config, digest, seed = _load(args)
    if config.scenario is None:
        raise ConfigError("optimize needs a 'scenario' section in the config")
    report = optimal_schedule(config.scenario, config.circuit,
                              config.rate_model, config.link)
    manifest = RunManifest(__version__, "optimize", digest, seed, config.rate_model)
    header, rows = _schedule_rows(report.schedule, report.trace,
                                  throughput=report.throughput,
                                  terminal_error=report.terminal_residual_error)
    out = Path(args.out) / "schedule.csv"
    _write_csv(out, manifest, header, rows)
    print(f"throughput {report.throughput!r} bits ({config.rate_model}), "
          f"terminal residual error {report.terminal_residual_error:.3e} J")
    print(f"wrote {out}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    config, digest, seed = _load(args)
    if args.strategy not in STRATEGIES:
        raise ConfigError(f"unknown strategy {args.strategy!r}; "
                          f"choose from {', '.join(STRATEGIES)}")
    point = experiment_config(config)
    if config.scenario is not None:
        scenario, classic = config.scenario, None
        if args.strategy == "tight_string":
            raise ConfigError("tight_string needs a generated scenario (the classic "
                              "harvest sequence); remove the 'scenario' section")
    else:
        scenario, classic = _draw_scenarios(point, 1)[0]
    trace, bits = evaluate_strategy(args.strategy, scenario, classic, point)
    manifest = RunManifest(__version__, f"simulate {args.strategy}", digest, seed,
                           config.rate_model)
    effective = TransmissionSchedule(
        powers=tuple(c / l for c, l in zip(trace.consumed, scenario.epoch_lengths)),
        epoch_bounds=tuple(scenario.epoch_bounds),
    )
    header, rows = _schedule_rows(effective, trace, throughput=bits)
    out = Path(args.out) / f"trace_{args.strategy}.csv"
    _write_csv(out, manifest, header, rows)
    print(f"strategy {args.strategy}: {bits!r} bits over {scenario.deadline!r} s")
    print(f"wrote {out}")
    return EXIT_OK


def _sweep_rows_to_csv(rows):
    header = ["sweep_axis", "sweep_value", "strategy", "mean_te_over_tau",
              "mean_throughput", "std_throughput", "mean_harvested",
              "std_harvested", "runs", "seed"]
    return header, [[row[k] for k in header] for row in rows]


def cmd_sweep(args) -> int:
    config, digest, seed = _load(args)
    point = experiment_config(config)
    sweep = config.sweep
    if args.figure == "fig6":
        rows = monte_carlo(point, ("optimal", "max_harvest", "tight_string"),
                           sweep_axis="mean_epoch_length",
                           sweep_values=sweep.epoch_lengths)
        header, data = _sweep_rows_to_csv(rows)
    elif args.figure == "fig5":
        rows = monte_carlo(point, ("optimal",),
                           sweep_axis="mean_epoch_length",
                           sweep_values=sweep.epoch_lengths)
        rows += monte_carlo(point, ("optimal",),
                            sweep_axis="capacitance",
                            sweep_values=sweep.capacitances)
        header, data = _sweep_rows_to_csv(rows)
    elif args.figure == "fig8":
        header = ["scenario_index", "d", "length_delta", "packet_delta",
                  "relative_power_change", "seed"]
        data = []
        for index, (scenario, _) in enumerate(_draw_scenarios(point, sweep.scenarios)):
            for d in sweep.impact_epochs:
                if not 1 <= d <= scenario.n_packets:
                    raise ConfigError(f"scenario {index}: impact epoch d={d} must lie in "
                                      f"[1, {scenario.n_packets}]")
                delta_length = sweep.length_delta_fraction * point.mean_epoch_length
                delta_packet = (sweep.packet_delta_fraction
                                * scenario.packets[d - 1][1])
                try:
                    change = future_impact_probe(scenario, config.circuit, d,
                                                 delta_length, delta_packet,
                                                 config.rate_model, config.link)
                except ValueError as exc:
                    raise ConfigError(f"scenario {index}, d={d}: {exc}") from exc
                data.append([index, d, delta_length, delta_packet, change, seed])
    else:
        raise ConfigError(f"unknown figure {args.figure!r}")
    manifest = RunManifest(__version__, f"sweep {args.figure}", digest, seed,
                           config.rate_model)
    out = Path(args.out) / f"sweep_{args.figure}.csv"
    _write_csv(out, manifest, header, data)
    print(f"wrote {out} ({len(data)} rows)")
    return EXIT_OK


def cmd_oracle_check(args) -> int:
    config, _, _ = _load(args)
    point = experiment_config(config)
    grid = GridSpec()
    if point.packet_count > grid.epoch_limit:
        raise ConfigError(f"oracle-check needs packet_count <= {grid.epoch_limit}, "
                          f"got {point.packet_count}")
    gain = _snr_gain(config.rate_model, config.link)
    worst_gap = -np.inf
    worst_run = None
    float_slack = 1e-9
    for run, (scenario, _) in enumerate(_draw_scenarios(point, point.runs)):
        report = optimal_schedule(scenario, config.circuit,
                                  config.rate_model, config.link)
        result = brute_force_optimize(scenario, config.circuit, grid, gain)
        gap = result.throughput - report.throughput
        if gap > worst_gap:
            worst_gap, worst_run = gap, run
    print(f"worst gap (oracle - solver): {worst_gap!r} bits on run {worst_run} "
          f"(allowed: {float_slack!r})")
    if worst_gap > float_slack:
        print("FAIL: the solver fell measurably below the brute-force oracle",
              file=sys.stderr)
        return EXIT_VALIDATION
    print("ok: solver matches or beats the oracle on every instance")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rfharvest",
        description="Feedback-aware RF energy harvesting transmission scheduling",
    )
    parser.add_argument("--version", action="version", version=f"rfharvest {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="path to the YAML config")
    common.add_argument("--seed", type=int, default=None,
                        help="override the config's RNG seed")
    common.add_argument("--out", default=".", help="output directory for CSV files")
    common.add_argument("--rate-model", choices=["normalized", "link-budget"],
                        default=None, help="override the config's rate model")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("optimize", parents=[common],
                   help="solve the configured scenario offline-optimally")
    p_sim = sub.add_parser("simulate", parents=[common],
                           help="replay one strategy and dump its trace")
    p_sim.add_argument("--strategy", required=True,
                       help=f"one of: {', '.join(STRATEGIES)}")
    p_sweep = sub.add_parser("sweep", parents=[common],
                             help="run a Monte Carlo figure reproduction")
    p_sweep.add_argument("--figure", required=True,
                         choices=["fig5", "fig6", "fig8"])
    sub.add_parser("oracle-check", parents=[common],
                   help="validate the solver against brute force")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "optimize": cmd_optimize,
        "simulate": cmd_simulate,
        "sweep": cmd_sweep,
        "oracle-check": cmd_oracle_check,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SolverError, GenerationError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
