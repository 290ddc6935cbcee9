"""Experiment configuration: a single YAML file drives every command.

The file is nested key-value text with comments; unknown keys are
rejected so typos fail loudly.  Defaults reproduce the reference setup:
2.4 GHz carrier over 10 MHz at 10 ft (3.048 m) with -174 dBm/Hz noise,
and a 4 kOhm / 50 mF charging circuit.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional

import yaml

from .charge import ChargeCircuit
from .exceptions import ConfigError
from .scheduling import EnergyScenario
from .simulator import ChannelLink, ExperimentConfig

__all__ = [
    "GeneratorConfig",
    "SweepConfig",
    "RunConfig",
    "load_config",
    "parse_config",
    "config_hash",
    "experiment_config",
]

DEFAULT_CIRCUIT = {"resistance": 4000.0, "capacitance": 0.05, "v_max": 2.5}
DEFAULT_LINK = {
    "frequency": 2.4e9,
    "distance": 3.048,       # 10 ft
    "bandwidth": 1.0e7,
    "noise_density": -174.0,
}


@dataclass(frozen=True)
class GeneratorConfig:
    """Random-scenario parameters (see simulator.generate_scenario).

    The defaults put the reference circuit in the medium-packet regime
    (mean charge duration around 0.4 time constants) with an energy
    density of 5 normalized watts; the interior stationarity branch the
    offline solver follows exists throughout that regime.
    """

    packet_count: int = 8
    mean_epoch_length: float = 0.006   # seconds
    mean_harvest: float = 0.03         # joules per packet
    initial_energy: float = 0.05       # joules


@dataclass(frozen=True)
class SweepConfig:
    """Axes and perturbations of the figure-reproduction sweeps."""

    # Arrival-spacing axis (seconds) of the packet-length sweeps; the
    # drawn harvests scale along with it (constant energy density).  The
    # two short points land near mean charge durations of 1.5e-5 and
    # 1.5e-4 time constants, the rest between 0.4 and 1.1.
    epoch_lengths: tuple = (2e-7, 2e-6, 0.006, 0.01, 0.014)
    # Capacitance axis (farads), linearly spaced so concavity shows as
    # shrinking increments.
    capacitances: tuple = (0.04, 0.06, 0.08, 0.10, 0.12)
    # Future-impact probe: how many arrivals ahead to perturb.
    impact_epochs: tuple = (1, 5)
    length_delta_fraction: float = 0.2   # of the mean epoch length
    packet_delta_fraction: float = 0.2   # of the perturbed packet's duration
    scenarios: int = 10                  # seeded scenarios for the probe

    def __post_init__(self):
        # an empty axis, or no probe scenario, would write a CSV without rows
        for name in ("epoch_lengths", "capacitances"):
            values = getattr(self, name)
            if not values or not all(0.0 < value < math.inf for value in values):
                raise ConfigError(f"sweep.{name} must list finite values > 0, got {values}")
        if not self.impact_epochs:
            raise ConfigError("sweep.impact_epochs must not be empty")
        if self.scenarios < 1:
            raise ConfigError(f"sweep.scenarios must be >= 1, got {self.scenarios}")


@dataclass(frozen=True)
class RunConfig:
    """Everything a command needs, as parsed from one YAML file."""

    circuit: ChargeCircuit
    link: ChannelLink
    rate_model: str = "normalized"
    seed: int = 42
    runs: int = 30
    scenario: Optional[EnergyScenario] = None
    generator: GeneratorConfig = field(default_factory=GeneratorConfig)
    sweep: SweepConfig = field(default_factory=SweepConfig)

    def __post_init__(self):
        # here, so that a command-line override made with replace() is checked too
        if self.rate_model not in ("normalized", "link-budget"):
            raise ConfigError(f"rate_model must be 'normalized' or 'link-budget', "
                              f"got {self.rate_model!r}")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.runs < 1:
            raise ConfigError("runs must be >= 1")


def _require_mapping(node, name):
    if not isinstance(node, dict):
        raise ConfigError(f"'{name}' must be a mapping, got {type(node).__name__}")
    return node


def _take(mapping, name, allowed):
    unknown = set(mapping) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown keys in '{name}': {sorted(unknown)}")


def _integer(value, name) -> int:
    """The value of the integer key ``name``: a bool or a float that is
    not integral is refused, where ``int()`` would take or truncate it."""
    message = f"{name} must be an integer, got {value!r}"
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ConfigError(message)
    try:
        return int(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(message) from exc


def _coerce(value, default, name):
    if isinstance(default, int):
        return _integer(value, name)
    return type(default)(value)


def _section(data, name, defaults) -> dict:
    """``defaults`` updated from the mapping ``data[name]``, each value
    coerced to its default's type, a tuple's element by element.

    ``float()`` also rescues exponent literals like 2.4e9 that YAML 1.1
    resolves as strings (its float regex wants a signed exponent).
    """
    section = {**defaults, **_require_mapping(data.get(name, {}), name)}
    _take(section, name, defaults)
    return {key: (tuple(_coerce(value, default[0], f"{name}.{key}") for value in section[key])
                  if isinstance(default, tuple)
                  else _coerce(section[key], default, f"{name}.{key}"))
            for key, default in defaults.items()}


def parse_config(data: dict) -> RunConfig:
    """Build a RunConfig from a parsed YAML mapping, applying defaults."""
    if data is None:
        data = {}
    _require_mapping(data, "config")
    _take(data, "config",
          ["circuit", "link", "rate_model", "seed", "runs", "scenario",
           "generator", "sweep"])
    try:
        circuit = ChargeCircuit(**_section(data, "circuit", DEFAULT_CIRCUIT))
        link = ChannelLink(**_section(data, "link", DEFAULT_LINK))

        rate_model = data.get("rate_model", "normalized")
        seed = _integer(data.get("seed", 42), "seed")
        runs = _integer(data.get("runs", 30), "runs")

        scenario = None
        if "scenario" in data and data["scenario"] is not None:
            node = _require_mapping(data["scenario"], "scenario")
            _take(node, "scenario", ["initial_energy", "packets", "deadline"])
            packets = node.get("packets", [])
            if not isinstance(packets, list) or any(
                    not isinstance(p, (list, tuple)) or len(p) != 2 for p in packets):
                raise ConfigError("scenario.packets must be a list of "
                                  "[arrival, charge_duration] pairs")
            for key in ("initial_energy", "deadline"):
                if key not in node:
                    raise ConfigError(f"scenario.{key} is required")
            scenario = EnergyScenario(
                initial_energy=float(node["initial_energy"]),
                packets=tuple((float(a), float(d)) for a, d in packets),
                deadline=float(node["deadline"]),
            )
            if scenario.initial_energy > circuit.e_max:
                raise ConfigError(f"scenario.initial_energy {scenario.initial_energy} J "
                                  f"exceeds the battery capacity e_max = {circuit.e_max} J")

        generator = GeneratorConfig(**_section(data, "generator", asdict(GeneratorConfig())))
        sweep = SweepConfig(**_section(data, "sweep", asdict(SweepConfig())))
    except ConfigError:
        raise
    except (TypeError, ValueError, KeyError, OverflowError) as exc:
        raise ConfigError(str(exc)) from exc
    return RunConfig(circuit=circuit, link=link, rate_model=rate_model, seed=seed,
                     runs=runs, scenario=scenario, generator=generator, sweep=sweep)


def load_config(path) -> RunConfig:
    """Parse a YAML config file, with libyaml's safe loader where PyYAML
    was built with it (the pure-Python one parses the same mapping about
    ten times slower)."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        data = yaml.load(path.read_text(), Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML in {path}: {exc}") from exc
    return parse_config(data)


def config_hash(path) -> str:
    """SHA-256 of the raw config file bytes."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def experiment_config(config: RunConfig) -> ExperimentConfig:
    """Monte Carlo parameters implied by a RunConfig."""
    return ExperimentConfig(
        circuit=config.circuit,
        mean_epoch_length=config.generator.mean_epoch_length,
        mean_harvest=config.generator.mean_harvest,
        packet_count=config.generator.packet_count,
        initial_energy=config.generator.initial_energy,
        runs=config.runs,
        seed=config.seed,
        rate_model=config.rate_model,
        link=config.link,
    )
