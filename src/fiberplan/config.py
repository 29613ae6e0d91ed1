"""Scenario configuration: a single JSON file drives the whole pipeline.

Paths are resolved relative to the config file's directory. Cost and
emission-factor overrides are flat key/value maps onto the books' fields;
Monte Carlo distributions reference the same keys. Validation happens here,
before any data is loaded or any output is written.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any, Mapping

from .costmodel import CostBook
from .errors import ConfigError, is_finite_number
from .lca import EmissionFactorBook
from .report import (
    Distribution,
    InvalidDistributionBounds,
    McConfig,
    check_distributions,
    resolve_parameter_key,
)

_ALGORITHM_CHOICES = ("mst", "pcst")
_SETTLEMENT_FORMATS = ("csv", "geojson")

_TOP_LEVEL_KEYS = {
    "inputs",
    "settlements_format",
    "adoption_rate",
    "min_density_per_km2",
    "buffer_km",
    "main_settlement_threshold",
    "algorithms",
    "snap_radius_km",
    "prize_scale",
    "output_dir",
    "cost",
    "emissions",
    "monte_carlo",
}

_INPUT_KEYS = {"settlements", "areas", "fiber", "roads"}


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated scenario: inputs, parameters, and output destination."""

    settlements_path: str
    areas_path: str
    fiber_path: str | None
    roads_path: str | None
    settlements_format: str
    adoption_rate: float
    min_density_per_km2: float
    buffer_km: float
    main_settlement_threshold: int
    algorithms: tuple[str, ...]
    snap_radius_km: float
    prize_scale: float
    cost_book: CostBook
    factor_book: EmissionFactorBook
    mc: McConfig | None
    output_dir: str


def load_scenario(
    path: str,
    *,
    algorithm: str | None = None,
    out_dir: str | None = None,
    seed: int | None = None,
    draws: int | None = None,
) -> ScenarioConfig:
    """Load and validate a scenario; CLI overrides win over config keys."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    unknown = set(raw) - _TOP_LEVEL_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")

    base_dir = os.path.dirname(os.path.abspath(path))

    inputs = raw.get("inputs")
    if not isinstance(inputs, dict):
        raise ConfigError("config needs an 'inputs' object")
    unknown_inputs = set(inputs) - _INPUT_KEYS
    if unknown_inputs:
        raise ConfigError(f"unknown input keys: {', '.join(sorted(unknown_inputs))}")

    def input_path(key: str, required: bool) -> str | None:
        value = inputs.get(key)
        if value is None:
            if required:
                raise ConfigError(f"inputs.{key} is required")
            return None
        resolved = value if os.path.isabs(value) else os.path.join(base_dir, value)
        if not os.path.exists(resolved):
            raise ConfigError(f"inputs.{key} does not exist: {resolved}")
        return resolved

    settlements_path = input_path("settlements", required=True)
    areas_path = input_path("areas", required=True)
    fiber_path = input_path("fiber", required=False)
    roads_path = input_path("roads", required=False)

    settlements_format = raw.get("settlements_format", "csv")
    if settlements_format not in _SETTLEMENT_FORMATS:
        raise ConfigError(
            f"settlements_format must be one of {_SETTLEMENT_FORMATS}, got {settlements_format!r}"
        )

    adoption_rate = _number(raw, "adoption_rate", required=True)
    if not 0.0 < adoption_rate <= 1.0:
        raise ConfigError(f"adoption_rate must be in (0, 1], got {adoption_rate}")
    min_density = _number(raw, "min_density_per_km2", default=0.0)
    if min_density < 0:
        raise ConfigError(f"min_density_per_km2 must be >= 0, got {min_density}")
    buffer_km = _number(raw, "buffer_km", default=2.0)
    if buffer_km < 0:
        raise ConfigError(f"buffer_km must be >= 0, got {buffer_km}")
    threshold = raw.get("main_settlement_threshold", 20_000)
    if not isinstance(threshold, int) or threshold < 0:
        raise ConfigError(
            f"main_settlement_threshold must be a non-negative integer, got {threshold!r}"
        )
    snap_radius_km = _number(raw, "snap_radius_km", default=5.0)
    if snap_radius_km < 0:
        raise ConfigError(f"snap_radius_km must be >= 0, got {snap_radius_km}")
    prize_scale = _number(raw, "prize_scale", default=1.0)
    if prize_scale <= 0:
        raise ConfigError(f"prize_scale must be positive, got {prize_scale}")

    algorithms = _parse_algorithms(raw.get("algorithms", ["mst", "pcst"]), algorithm)
    if "pcst" in algorithms and roads_path is None:
        raise ConfigError("inputs.roads is required when the pcst algorithm is selected")

    cost_book = _build_book(CostBook, raw.get("cost", {}), "cost")
    factor_book = _build_book(EmissionFactorBook, raw.get("emissions", {}), "emissions")
    mc = _parse_mc(raw.get("monte_carlo"), seed=seed, draws=draws)
    if mc is not None:
        check_distributions(mc, cost_book, factor_book)

    output_dir = out_dir if out_dir is not None else raw.get("output_dir", "out")
    if not isinstance(output_dir, str) or not output_dir:
        raise ConfigError(f"output_dir must be a non-empty string, got {output_dir!r}")
    if not os.path.isabs(output_dir):
        output_dir = os.path.join(base_dir, output_dir)

    return ScenarioConfig(
        settlements_path=settlements_path,
        areas_path=areas_path,
        fiber_path=fiber_path,
        roads_path=roads_path,
        settlements_format=settlements_format,
        adoption_rate=adoption_rate,
        min_density_per_km2=min_density,
        buffer_km=buffer_km,
        main_settlement_threshold=threshold,
        algorithms=algorithms,
        snap_radius_km=snap_radius_km,
        prize_scale=prize_scale,
        cost_book=cost_book,
        factor_book=factor_book,
        mc=mc,
        output_dir=output_dir,
    )


def _number(raw: Mapping[str, Any], key: str, *, default: float | None = None, required: bool = False) -> float:
    value = raw.get(key)
    if value is None:
        if required:
            raise ConfigError(f"{key} is required")
        return float(default)
    if not is_finite_number(value):
        raise ConfigError(f"{key} must be a finite number, got {value!r}")
    return float(value)


def _parse_algorithms(value: Any, override: str | None) -> tuple[str, ...]:
    if override is not None:
        if override == "both":
            return _ALGORITHM_CHOICES
        if override not in _ALGORITHM_CHOICES:
            raise ConfigError(f"algorithm must be mst, pcst, or both, got {override!r}")
        return (override,)
    if not isinstance(value, list) or not value:
        raise ConfigError(f"algorithms must be a non-empty list, got {value!r}")
    seen: list[str] = []
    for item in value:
        if item not in _ALGORITHM_CHOICES:
            raise ConfigError(f"algorithms entries must be mst or pcst, got {item!r}")
        if item not in seen:
            seen.append(item)
    return tuple(sorted(seen))  # mst before pcst, deterministic


def _build_book(book_cls: type, overrides: Any, section: str):
    if not isinstance(overrides, dict):
        raise ConfigError(f"{section} overrides must be an object")
    try:
        return book_cls(**overrides)
    except TypeError as exc:
        raise ConfigError(f"unknown {section} parameter: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"invalid {section} parameter: {exc}") from exc


def _parse_mc(value: Any, *, seed: int | None, draws: int | None) -> McConfig | None:
    if value is None:
        if seed is not None or draws is not None:
            raise ConfigError("--seed/--draws given but the config has no monte_carlo section")
        return None
    if not isinstance(value, dict):
        raise ConfigError("monte_carlo must be an object")
    unknown = set(value) - {"draws", "seed", "distributions"}
    if unknown:
        raise ConfigError(f"unknown monte_carlo keys: {', '.join(sorted(unknown))}")
    mc_draws = draws if draws is not None else value.get("draws", 1000)
    mc_seed = seed if seed is not None else value.get("seed", 0)
    if not isinstance(mc_draws, int) or isinstance(mc_draws, bool) or mc_draws < 1:
        raise ConfigError(f"monte_carlo.draws must be a positive integer, got {mc_draws!r}")
    if not isinstance(mc_seed, int) or isinstance(mc_seed, bool):
        raise ConfigError(f"monte_carlo.seed must be an integer, got {mc_seed!r}")
    raw_dists = value.get("distributions", {})
    if not isinstance(raw_dists, dict):
        raise ConfigError("monte_carlo.distributions must be an object")
    distributions: dict[str, Distribution] = {}
    for key in sorted(raw_dists):
        entry = raw_dists[key]
        resolve_parameter_key(key)  # raises UnknownParameterKey (a ConfigError)
        distributions[key] = _parse_distribution(key, entry)
    return McConfig(draws=mc_draws, seed=mc_seed, distributions=distributions)


def _parse_distribution(key: str, entry: Any) -> Distribution:
    if not isinstance(entry, dict) or "dist" not in entry:
        raise ConfigError(f"distribution for {key!r} must be an object with a 'dist' key")
    kind = entry["dist"]
    known = {"dist", "lo", "mode", "hi", "value"}
    unknown = set(entry) - known
    if unknown:
        raise ConfigError(f"unknown distribution keys for {key!r}: {', '.join(sorted(unknown))}")

    def bound(name: str) -> float:
        value = entry[name]
        # Distribution rejects anything that is not a finite number.
        return float(value) if is_finite_number(value) else value

    try:
        if kind == "fixed":
            return Distribution(kind="fixed", value=entry.get("value"))
        if kind == "uniform":
            return Distribution(kind="uniform", lo=bound("lo"), hi=bound("hi"))
        if kind == "triangular":
            return Distribution(
                kind="triangular", lo=bound("lo"), mode=bound("mode"), hi=bound("hi")
            )
    except KeyError as exc:
        raise ConfigError(f"distribution for {key!r} is missing {exc}") from exc
    except InvalidDistributionBounds as exc:
        raise InvalidDistributionBounds(f"distribution for {key!r}: {exc}") from exc
    raise ConfigError(f"distribution for {key!r} has unknown kind {kind!r}")


def parameters_payload(cfg: ScenarioConfig) -> dict:
    """Semantic parameters for hashing: everything except file paths."""
    payload: dict[str, Any] = {
        "adoption_rate": cfg.adoption_rate,
        "min_density_per_km2": cfg.min_density_per_km2,
        "buffer_km": cfg.buffer_km,
        "main_settlement_threshold": cfg.main_settlement_threshold,
        "algorithms": list(cfg.algorithms),
        "snap_radius_km": cfg.snap_radius_km,
        "prize_scale": cfg.prize_scale,
        "cost": {k: getattr(cfg.cost_book, k) for k in sorted(vars(cfg.cost_book))},
        "emissions": {k: getattr(cfg.factor_book, k) for k in sorted(vars(cfg.factor_book))},
    }
    if cfg.mc is not None:
        payload["monte_carlo"] = {
            "draws": cfg.mc.draws,
            "seed": cfg.mc.seed,
            "distributions": {
                k: {
                    "dist": d.kind,
                    "lo": d.lo,
                    "mode": d.mode,
                    "hi": d.hi,
                    "value": d.value,
                }
                for k, d in sorted(cfg.mc.distributions.items())
            },
        }
    return payload
