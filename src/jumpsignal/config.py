"""Experiment configuration: YAML blocks, validation, and object builders.

A config file holds the six blocks below; every key has a default equal
to the reference experiment (put option, hide-small sweep), so a partial
file or an empty one is valid. Unknown keys anywhere are rejected. A
config is checked as a whole when it is made: it builds the market, jump
grid, time grid, driver contexts and payoff it describes, and the ranges
those model objects check reject it there. Loading the dump of a config
returns an equal config, and the sha256 hash of the canonical dump
identifies a run in result files.
"""

from __future__ import annotations

import dataclasses
import hashlib
import numbers
import sys
from dataclasses import dataclass, field, fields
from typing import List, Tuple, Union

import yaml

from .drivers import DriverContext
from .levy_model import (
    DiscreteJumpGrid,
    HideLarge,
    HideSmall,
    LevyMarketSpec,
    NoSignal,
    SignalScenario,
    build_grid,
)
from .simulate import _PAYOFFS, TimeGrid, _poisson_cdf, payoff_terminal

__all__ = [
    "MarketBlock",
    "GridBlock",
    "SchemeBlock",
    "ScenarioBlock",
    "PayoffBlock",
    "UtilityBlock",
    "ExperimentConfig",
    "load_config",
    "load_config_text",
    "dump_config",
    "config_hash",
]

_VARIANTS = ("nosignal", "hidesmall", "hidelarge")
# verify simulates a fresh batch at this offset past the largest seed
FRESH_SEED_OFFSET = 1009


def _is_int(value) -> bool:
    """A number (see ``_is_number``) that is an integer."""
    return isinstance(value, numbers.Integral) and _is_number(value)


def _require_int(name: str, value) -> None:
    if not _is_int(value):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _is_number(value) -> bool:
    """A real number that a float holds, and not a bool: no string such
    as "0.2", no inf or nan, which the model objects' range checks let
    through, and no integer too large for them to convert to a float."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _require_numbers(block, *names: str) -> None:
    """Reject a non-number at load; the value is kept as given, not
    coerced, so a config's dump and hash do not change."""
    for name in names:
        value = getattr(block, name)
        if not _is_number(value):
            raise ValueError(f"{name} must be a number, got {value!r}")


@dataclass(frozen=True)
class MarketBlock:
    rho: float = 0.1
    alpha: float = 1.5
    epsilon: float = 0.01
    kappa: Union[float, str] = "compensate"
    sigma: float = 0.2
    s0: float = 1.0
    T: float = 1.0

    def __post_init__(self):
        _require_numbers(self, "rho", "alpha", "epsilon", "sigma", "s0", "T")
        if self.kappa != "compensate" and not _is_number(self.kappa):
            raise ValueError(f"kappa must be a number or 'compensate', got {self.kappa!r}")


@dataclass(frozen=True)
class GridBlock:
    q: int = 20
    e_min: float = 0.05
    e_max: float = 5.0
    layout: str = "geometric"

    def __post_init__(self):
        _require_int("q", self.q)
        _require_numbers(self, "e_min", "e_max")


@dataclass(frozen=True)
class SchemeBlock:
    n_steps: int = 10
    n_paths: int = 65536
    n_cells: int = 64
    min_count: int = 50
    seeds: Tuple[int, ...] = (1, 2, 3, 4, 5)

    def __post_init__(self):
        for name in ("n_steps", "n_paths", "n_cells", "min_count"):
            _require_int(name, getattr(self, name))
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not isinstance(self.seeds, (list, tuple)) or not all(map(_is_int, self.seeds)):
            raise ValueError(f"seeds must be a list of integers, got {self.seeds!r}")
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        if len(self.seeds) == 0:
            raise ValueError("seeds must be nonempty")
        # seeds key Philox, and so does verify's fresh seed: keys stop below 2^128
        if min(self.seeds) < 0 or max(self.seeds) + FRESH_SEED_OFFSET >= 2 ** 128:
            raise ValueError(f"seeds must be >= 0 and < 2**128 - {FRESH_SEED_OFFSET}, "
                             f"got {list(self.seeds)}")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError(f"seeds must be distinct, got {list(self.seeds)}")


@dataclass(frozen=True)
class ScenarioBlock:
    variant: str = "hidesmall"
    c_values: Tuple[float, ...] = (0.1, 0.3, 0.6, 1.0, 2.0)

    def __post_init__(self):
        if self.variant not in _VARIANTS:
            raise ValueError(f"variant must be one of {_VARIANTS}, got {self.variant!r}")
        if not isinstance(self.c_values, (list, tuple)) or not all(map(_is_number, self.c_values)):
            raise ValueError(f"c_values must be a list of numbers, got {self.c_values!r}")
        object.__setattr__(self, "c_values", tuple(float(c) for c in self.c_values))
        if not self.c_values and self.variant != "nosignal":
            raise ValueError(f"variant {self.variant!r} needs at least one cutoff in c_values")
        if any(c <= 0 for c in self.c_values):
            raise ValueError("cutoffs must be > 0")
        if len(set(self.c_values)) != len(self.c_values):
            raise ValueError(f"c_values must be distinct, got {list(self.c_values)}")


@dataclass(frozen=True)
class PayoffBlock:
    type: str = "put"
    strike: float = 1.0

    def __post_init__(self):
        _require_numbers(self, "strike")
        if self.type not in _PAYOFFS:
            raise ValueError(f"payoff type must be one of {tuple(_PAYOFFS)}, got {self.type!r}")


@dataclass(frozen=True)
class UtilityBlock:
    lam: float = 0.4
    pi_lower: float = 1.0
    pi_upper: float = 1.0
    x: float = 0.0

    def __post_init__(self):
        _require_numbers(self, "lam", "pi_lower", "pi_upper", "x")
        if not self.lam > 0:
            raise ValueError(f"lam must be > 0, got {self.lam}")
        if self.pi_lower < 0 or self.pi_upper < 0:
            raise ValueError("position bounds must be >= 0")


_BLOCKS = {
    "market": MarketBlock,
    "grid": GridBlock,
    "scheme": SchemeBlock,
    "scenario": ScenarioBlock,
    "payoff": PayoffBlock,
    "utility": UtilityBlock,
}


@dataclass(frozen=True)
class ExperimentConfig:
    market: MarketBlock = field(default_factory=MarketBlock)
    grid: GridBlock = field(default_factory=GridBlock)
    scheme: SchemeBlock = field(default_factory=SchemeBlock)
    scenario: ScenarioBlock = field(default_factory=ScenarioBlock)
    payoff: PayoffBlock = field(default_factory=PayoffBlock)
    utility: UtilityBlock = field(default_factory=UtilityBlock)

    def __post_init__(self):
        # build what the config describes, so the model objects' own range
        # checks reject a bad config when it loads, not inside a command
        spec = self.market_spec()
        grid = self.jump_grid(spec)
        # the largest jump-bin mean nu_i dt_k must have a Poisson cdf
        _poisson_cdf(float(grid.weights.max()) * float(self.time_grid().dt.max()))
        for scenario in self.scenarios():
            self.driver_context(spec, grid, scenario)
        self.payoff_values(spec.s0)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if data is None:
            data = {}
        if not isinstance(data, dict):
            raise ValueError(f"config root must be a mapping, got {type(data).__name__}")
        unknown = set(data) - set(_BLOCKS)
        if unknown:
            raise ValueError(f"unknown config block(s): {sorted(unknown)}")
        kwargs = {}
        for name, block_cls in _BLOCKS.items():
            block_data = data.get(name)
            if block_data is None:
                block_data = {}
            if not isinstance(block_data, dict):
                raise ValueError(f"config block {name!r} must be a mapping, "
                                 f"got {type(block_data).__name__}")
            allowed = {f.name for f in fields(block_cls)}
            bad = set(block_data) - allowed
            if bad:
                raise ValueError(f"unknown key(s) in block {name!r}: {sorted(bad)}")
            kwargs[name] = block_cls(**block_data)
        return cls(**kwargs)

    def to_dict(self) -> dict:
        out = {}
        for name in _BLOCKS:
            block = getattr(self, name)
            d = dataclasses.asdict(block)
            for k, v in d.items():
                if isinstance(v, tuple):
                    d[k] = list(v)
            out[name] = d
        return out

    # builders

    def market_spec(self) -> LevyMarketSpec:
        mb = self.market
        # "compensate" sets kappa to the integral of eta against nu, which
        # is zero because eta is odd and nu symmetric; the driver's
        # risk-premium constant C = kappa / (lam sigma) is then 0
        kappa = 0.0 if mb.kappa == "compensate" else float(mb.kappa)
        return LevyMarketSpec(rho=mb.rho, alpha=mb.alpha, epsilon=mb.epsilon,
                              kappa=kappa, sigma=mb.sigma, s0=mb.s0, T=mb.T)

    def jump_grid(self, spec: LevyMarketSpec) -> DiscreteJumpGrid:
        gb = self.grid
        return build_grid(gb.q, spec, e_min=gb.e_min, e_max=gb.e_max, layout=gb.layout)

    def time_grid(self) -> TimeGrid:
        return TimeGrid.uniform(self.scheme.n_steps, self.market.T)

    def scenarios(self) -> List[SignalScenario]:
        sb = self.scenario
        if sb.variant == "nosignal":
            return [NoSignal()]
        mk = HideSmall if sb.variant == "hidesmall" else HideLarge
        return [mk(c=c) for c in sb.c_values]

    def driver_context(self, spec: LevyMarketSpec, grid: DiscreteJumpGrid,
                       scenario: SignalScenario) -> DriverContext:
        ub = self.utility
        return DriverContext(spec, grid, scenario, ub.lam,
                             pi_lower=ub.pi_lower, pi_upper=ub.pi_upper)

    def payoff_values(self, s_t):
        return payoff_terminal(s_t, self.payoff.type, self.payoff.strike)


def load_config(path) -> ExperimentConfig:
    """Load a config from a YAML file; missing blocks fall back to defaults."""
    with open(path, "r") as fh:
        return load_config_text(fh.read())


def load_config_text(text: str) -> ExperimentConfig:
    return ExperimentConfig.from_dict(yaml.safe_load(text) or {})


def dump_config(cfg: ExperimentConfig) -> str:
    """Canonical YAML dump (sorted keys); load(dump(cfg)) == cfg."""
    return yaml.safe_dump(cfg.to_dict(), sort_keys=True)


def config_hash(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(dump_config(cfg).encode()).hexdigest()[:16]
