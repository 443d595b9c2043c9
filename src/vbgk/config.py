"""Plain-text run configuration: one `key = value` per line, `#` comments.

Parsing is total: any malformed line, unknown key, bad value or missing
required key raises ConfigError, carrying the line number when the problem
sits on one line (file-level problems such as missing keys carry none).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError

REQUIRED_KEYS = ("epsilon", "tau", "lambda", "nu", "rho_bar", "n", "t_end")

@dataclass(frozen=True)
class RunConfig:
    epsilon: float
    tau: float
    lam: float
    nu: float
    rho_bar: float
    n: int
    t_end: float
    c_relax: float = 1.0
    transport_mode: str = "spectral"
    record_every: int = 10
    initial_data: str = "taylor_green"
    initial_data_path: str | None = None
    s: float = 3.5
    s_prime: float = 2.0
    output_dir: str = "."
    snapshot_times: tuple[float, ...] = field(default_factory=tuple)

    def with_epsilon(self, epsilon: float) -> "RunConfig":
        return dataclasses.replace(self, epsilon=epsilon)


def _parse_float(key, value, line):
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"key {key!r} expects a number, got {value!r}", line) from None


def _parse_int(key, value, line):
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"key {key!r} expects an integer, got {value!r}", line) from None


def parse_config_text(text: str, source: str = "<string>") -> RunConfig:
    values: dict[str, object] = {}
    seen: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected 'key = value', got {raw.strip()!r}", lineno)
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ConfigError(f"empty key or value in {raw.strip()!r}", lineno)
        if key in seen:
            raise ConfigError(f"duplicate key {key!r} (first on line {seen[key]})", lineno)
        seen[key] = lineno

        if key in ("epsilon", "tau", "lambda", "nu", "rho_bar", "t_end", "c_relax",
                   "s", "s_prime"):
            values[key] = _parse_float(key, value, lineno)
        elif key in ("n", "record_every"):
            values[key] = _parse_int(key, value, lineno)
        elif key == "transport_mode":
            if value not in ("spectral", "upwind"):
                raise ConfigError(
                    f"transport_mode must be spectral or upwind, got {value!r}", lineno)
            values[key] = value
        elif key == "initial_data":
            if value in ("taylor_green", "zero"):
                values[key] = value
            elif value.startswith("file:"):
                values[key] = "file"
                values["initial_data_path"] = value[len("file:"):].strip()
            else:
                raise ConfigError(
                    f"initial_data must be taylor_green, zero or file:PATH, got {value!r}",
                    lineno)
            if values[key] == "file" and not values.get("initial_data_path"):
                raise ConfigError("initial_data file path is empty", lineno)
        elif key == "output_dir":
            values[key] = value
        elif key == "snapshot_times":
            try:
                times = tuple(float(v) for v in value.split(",") if v.strip())
            except ValueError:
                times = None
            if times is None or not all(map(math.isfinite, times)):
                raise ConfigError(
                    f"snapshot_times expects comma-separated finite numbers, got {value!r}",
                    lineno)
            values[key] = times
        else:
            raise ConfigError(f"unknown key {key!r}", lineno)

    missing = [k for k in REQUIRED_KEYS if k not in values]
    if missing:
        raise ConfigError(f"{source}: missing required keys: {', '.join(missing)}")

    # chained comparisons are false for NaN, and the upper bounds reject inf
    if "s" in values and not 0 < values["s"] < math.inf:
        raise ConfigError(f"s must be finite and positive, got {values['s']}", seen["s"])
    if "s_prime" in values and not 0 <= values["s_prime"] < math.inf:
        raise ConfigError(f"s_prime must be finite and >= 0, got {values['s_prime']}",
                          seen["s_prime"])
    # a time past t_end is never reached and one before 0 would be taken at 0
    outside = [t for t in values.get("snapshot_times", ()) if not 0 <= t <= values["t_end"]]
    if outside:
        raise ConfigError(f"snapshot time {outside[0]!r} lies outside [0, t_end = "
                          f"{values['t_end']!r}]", seen["snapshot_times"])

    values["lam"] = values.pop("lambda")
    return RunConfig(**values)


def parse_config(path) -> RunConfig:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config_text(text, source=str(path))
