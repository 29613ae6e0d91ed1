"""Scenario configuration: a single JSON file drives the whole pipeline.

Paths are resolved relative to the config file's directory. Cost and
emission-factor overrides are flat key/value maps onto the books' fields;
Monte Carlo distributions reference the same keys. CLI overrides replace
their keys in the parsed document, which is then validated once (the books,
`McConfig` and `Distribution` check their own fields) before any data is
loaded or any output is written.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any, Mapping

from .costmodel import CostBook
from .errors import ConfigError, is_finite_number
from .lca import EmissionFactorBook
from .netdesign.design import ALGORITHMS
from .report import (
    DIST_BOUNDS,
    Distribution,
    InvalidDistributionBounds,
    McConfig,
    check_distributions,
)

_SETTLEMENT_FORMATS = ("csv", "geojson")

# The range of a numeric setting, keyed by the words its error message uses.
_RANGES = {">= 0": lambda v: v >= 0, "positive": lambda v: v > 0, "in (0, 1]": lambda v: 0 < v <= 1}

# Each float setting, in check order: its default (None: required) and range.
_FLOAT_SETTINGS = {
    "adoption_rate": (None, "in (0, 1]"),
    "min_density_per_km2": (0.0, ">= 0"),
    "buffer_km": (2.0, ">= 0"),
    "snap_radius_km": (5.0, ">= 0"),
    "prize_scale": (1.0, "positive"),
}

_TOP_LEVEL_KEYS = {
    *_FLOAT_SETTINGS, "inputs", "settlements_format", "main_settlement_threshold",
    "algorithms", "output_dir", "cost", "emissions", "monte_carlo",
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
        with open(path, encoding="utf-8-sig") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:  # bad JSON or UTF-8, or an int past int()'s digit limit
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    _reject_unknown(raw, _TOP_LEVEL_KEYS, "config keys")
    if algorithm is not None:
        raw["algorithms"] = list(ALGORITHMS) if algorithm == "both" else [algorithm]
    if out_dir is not None:
        raw["output_dir"] = out_dir
    mc_overrides = {k: v for k, v in (("seed", seed), ("draws", draws)) if v is not None}
    if mc_overrides:
        mc_section = raw.get("monte_carlo")
        if mc_section is None:
            raise ConfigError("--seed/--draws given but the config has no monte_carlo section")
        if isinstance(mc_section, dict):  # _parse_mc rejects any other value
            raw["monte_carlo"] = {**mc_section, **mc_overrides}

    base_dir = os.path.dirname(os.path.abspath(path))

    inputs = raw.get("inputs")
    if not isinstance(inputs, dict):
        raise ConfigError("config needs an 'inputs' object")
    _reject_unknown(inputs, _INPUT_KEYS, "input keys")

    def input_path(key: str, required: bool) -> str | None:
        value = inputs.get(key)
        if value is None:
            if required:
                raise ConfigError(f"inputs.{key} is required")
            return None
        if not isinstance(value, str):
            raise ConfigError(f"inputs.{key} must be a path string, got {value!r}")
        resolved = value if os.path.isabs(value) else os.path.join(base_dir, value)
        if not os.path.exists(resolved):
            raise ConfigError(f"inputs.{key} does not exist: {resolved}")
        if not os.path.isfile(resolved):
            raise ConfigError(f"inputs.{key} is not a regular file: {resolved}")
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

    floats = {}
    for key, (default, rule) in _FLOAT_SETTINGS.items():
        if key == "snap_radius_km":  # the threshold is checked after buffer_km
            threshold = raw.get("main_settlement_threshold", 20_000)
            if not isinstance(threshold, int) or isinstance(threshold, bool) or threshold < 0:
                raise ConfigError(
                    f"main_settlement_threshold must be a non-negative integer, got {threshold!r}"
                )
        floats[key] = _number(raw, key, default, rule)

    algorithms = _parse_algorithms(raw.get("algorithms", list(ALGORITHMS)))
    if "pcst" in algorithms and roads_path is None:
        raise ConfigError("inputs.roads is required when the pcst algorithm is selected")

    cost_book = _build_book(CostBook, raw.get("cost", {}), "cost")
    factor_book = _build_book(EmissionFactorBook, raw.get("emissions", {}), "emissions")
    mc = _parse_mc(raw.get("monte_carlo"))
    if mc is not None:
        check_distributions(mc, cost_book, factor_book)

    output_dir = raw.get("output_dir", "out")
    if not isinstance(output_dir, str) or not output_dir or "\0" in output_dir:
        raise ConfigError(
            f"output_dir must be a non-empty string without NUL bytes, got {output_dir!r}"
        )
    if not os.path.isabs(output_dir):
        output_dir = os.path.join(base_dir, output_dir)

    return ScenarioConfig(
        settlements_path=settlements_path,
        areas_path=areas_path,
        fiber_path=fiber_path,
        roads_path=roads_path,
        settlements_format=settlements_format,
        **floats,
        main_settlement_threshold=threshold,
        algorithms=algorithms,
        cost_book=cost_book,
        factor_book=factor_book,
        mc=mc,
        output_dir=output_dir,
    )


def _number(raw: Mapping[str, Any], key: str, default: float | None, rule: str) -> float:
    """raw[key], or `default` when it is absent or null (None: required): a
    finite number in the range `rule` names in _RANGES."""
    value = raw.get(key)
    if value is None and default is None:
        raise ConfigError(f"{key} is required")
    value = default if value is None else value
    if not is_finite_number(value):
        raise ConfigError(f"{key} must be a finite number, got {value!r}")
    if not _RANGES[rule](float(value)):
        raise ConfigError(f"{key} must be {rule}, got {float(value)}")
    return float(value)


def _parse_algorithms(value: Any) -> tuple[str, ...]:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"algorithms must be a non-empty list, got {value!r}")
    seen: list[str] = []
    for item in value:
        if not isinstance(item, str) or item not in ALGORITHMS:
            raise ConfigError(
                f"algorithms entries must be {' or '.join(ALGORITHMS)}, got {item!r}"
            )
        if item not in seen:
            seen.append(item)
    return tuple(sorted(seen))  # mst before pcst, deterministic


def _reject_unknown(section: Mapping[str, Any], known: set[str], what: str) -> None:
    unknown = set(section) - known
    if unknown:
        raise ConfigError(f"unknown {what}: {', '.join(sorted(unknown))}")


def _build_book(book_cls: type, overrides: Any, section: str):
    if not isinstance(overrides, dict):
        raise ConfigError(f"{section} overrides must be an object")
    try:
        return book_cls(**overrides)
    except TypeError as exc:
        raise ConfigError(f"unknown {section} parameter: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"invalid {section} parameter: {exc}") from exc


def _parse_mc(value: Any) -> McConfig | None:
    if value is None:
        return None
    if not isinstance(value, dict):
        raise ConfigError("monte_carlo must be an object")
    _reject_unknown(value, {"draws", "seed", "distributions"}, "monte_carlo keys")
    raw_dists = value.get("distributions", {})
    if not isinstance(raw_dists, dict):
        raise ConfigError("monte_carlo.distributions must be an object")
    return McConfig(
        draws=value.get("draws", 1000),
        seed=value.get("seed", 0),
        distributions={key: _parse_distribution(key, raw_dists[key]) for key in sorted(raw_dists)},
    )


def _parse_distribution(key: str, entry: Any) -> Distribution:
    if not isinstance(entry, dict) or "dist" not in entry:
        raise ConfigError(f"distribution for {key!r} must be an object with a 'dist' key")
    kind = entry["dist"]
    # Distribution rejects a kind that DIST_BOUNDS does not list.
    names = DIST_BOUNDS.get(kind, ()) if isinstance(kind, str) else ()
    try:
        dist = Distribution(
            kind=kind,
            value=entry.get("value") if kind == "fixed" else None,
            **{name: entry[name] for name in names},
        )
    except KeyError as exc:
        raise ConfigError(f"distribution for {key!r} is missing {exc}") from exc
    except InvalidDistributionBounds as exc:
        raise InvalidDistributionBounds(f"distribution for {key!r}: {exc}") from exc
    read = {"dist", *names, *(("value",) if kind == "fixed" else ())}
    _reject_unknown(entry, read, f"{kind} distribution keys for {key!r}")
    return dist


def parameters_payload(cfg: ScenarioConfig) -> dict:
    """Semantic parameters for hashing: everything except file paths."""
    payload: dict[str, Any] = {
        **{key: getattr(cfg, key) for key in _FLOAT_SETTINGS},
        "main_settlement_threshold": cfg.main_settlement_threshold,
        "algorithms": list(cfg.algorithms),
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
