"""Flat key = value run configuration with a lossless round trip.

The file format is one ``key = value`` pair per line, ``#`` comments and
blank lines ignored. List values (``a_sets``, ``n_grid``, ``r_grid``) are
comma separated. ``alpha`` accepts plain radians or ``pi`` expressions
such as ``pi``, ``2pi``, ``pi/2`` or ``0.5pi``.

``a_sets`` holds degree-set descriptors, ``tail:T`` or ``set:a,b,c``, and
a ``set:`` has commas of its own: a comma-separated token that starts with
neither ``tail:`` nor ``set:`` continues the descriptor before it, so
``tail:7,set:0,1`` is ``("tail:7", "set:0,1")``. Tokens are stripped and
empty ones skipped, so ``set:1, 2`` is read as ``set:1,2``.

``_FIELD_PARSERS`` is the one text reader of every ``RunConfig`` field and
``_render`` the one writer: the config file, the command-line flags and the
``config.txt`` a run persists all go through them.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields, replace

from .degree_sets import DegreeSet
from .model import MODES, SIDES, ModelParams
from .theory import radius_for_mean_degree


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


_PI_FORM = re.compile(r"^\s*([0-9.]*)\s*\*?\s*pi\s*(?:/\s*([0-9.]+))?\s*$", re.IGNORECASE)


def parse_alpha(text: str) -> float:
    m = _PI_FORM.match(text)
    if m:
        coef = float(m.group(1)) if m.group(1) else 1.0
        div = float(m.group(2)) if m.group(2) else 1.0
        if div == 0.0:
            raise ConfigError(f"alpha: division by zero in {text!r}")
        return coef * math.pi / div
    try:
        return float(text)
    except ValueError as exc:
        raise ConfigError(f"alpha: cannot parse {text!r}") from exc


@dataclass(frozen=True)
class RunConfig:
    n: int = 1000
    alpha: float = math.pi
    r: float | None = None
    mu_target: float | None = None
    v: float = 0.0
    q: float = 0.0
    mode: str = "binomial"
    seed: int = 0
    trials: int = 1000
    parallelism: int = 1
    slack: float = 0.08
    side: str = "both"
    a_sets: tuple[str, ...] = ()
    out: str | None = None
    outer_samples: int = 2000
    ew_samples: int = 20000
    trunc_cap: float = 1e-8
    n_grid: tuple[int, ...] = ()
    r_grid: tuple[float, ...] = ()

    def sides(self) -> tuple[str, ...]:
        return SIDES if self.side == "both" else (self.side,)

    def modes(self) -> tuple[str, ...]:
        return MODES if self.mode == "both" else (self.mode,)


def _split_a_sets(raw: str) -> tuple[str, ...]:
    descriptors: list[str] = []
    for token in (s.strip() for s in raw.split(",")):
        if not token:
            continue
        if descriptors and not token.startswith(("tail:", "set:")):
            descriptors[-1] += "," + token
        else:
            descriptors.append(token)
    return tuple(descriptors)


def _comma_list(item):
    return lambda raw: tuple(item(s) for s in raw.split(",") if s.strip())


# One text reader per RunConfig field, in field order.
_FIELD_PARSERS = {
    "n": int, "alpha": parse_alpha, "r": float, "mu_target": float, "v": float,
    "q": float, "mode": str, "seed": int, "trials": int, "parallelism": int,
    "slack": float, "side": str, "a_sets": _split_a_sets,
    "out": str, "outer_samples": int, "ew_samples": int,
    "trunc_cap": float, "n_grid": _comma_list(int), "r_grid": _comma_list(float),
}


def parse_field(key: str, raw: str):
    """The value of field ``key`` read from its text form."""
    if key not in _FIELD_PARSERS:
        raise ConfigError(f"unknown configuration key {key!r}")
    raw = raw.strip()
    try:
        return _FIELD_PARSERS[key](raw)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{key}: cannot parse {raw!r}") from exc


def parse_config_text(text: str) -> RunConfig:
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = body.split("=", 1)
        key = key.strip()
        values[key] = parse_field(key, raw)
    return RunConfig(**values)


def load_config(path) -> RunConfig:
    with open(path) as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not a text file ({exc.reason})") from exc
    return parse_config_text(text)


def _render(val) -> str:
    if isinstance(val, tuple):
        return ",".join(_render(v) for v in val)
    return repr(val) if isinstance(val, float) else str(val)


def serialize_config(cfg: RunConfig) -> str:
    """Canonical text form; ``parse_config_text`` inverts it exactly.

    Unset fields (``None``, empty tuples) are left out.
    """
    lines = []
    for f in fields(cfg):
        val = getattr(cfg, f.name)
        if val is None or (isinstance(val, tuple) and not val):
            continue
        lines.append(f"{f.name} = {_render(val)}")
    return "\n".join(lines) + "\n"


def validate_config(cfg: RunConfig) -> None:
    """Field-specific validation of the run settings; raises ConfigError
    naming the field. The model's own fields are checked where
    ``resolve_params`` builds ``ModelParams``.

    An accepted config replays from its ``serialize_config`` text: ``out``
    may hold no ``#`` (the file's comment mark), no line break and no
    leading or trailing whitespace, which the file's parser would cut or
    strip.
    """
    if (cfg.r is None) == (cfg.mu_target is None):
        raise ConfigError("exactly one of 'r' and 'mu_target' must be provided")
    if cfg.mu_target is not None and not cfg.mu_target > 0:
        raise ConfigError("mu_target: must be > 0")
    if cfg.out is not None and (
        "#" in cfg.out or len(cfg.out.splitlines()) > 1 or cfg.out != cfg.out.strip()
    ):
        raise ConfigError(
            "out: must not contain '#' or a line break, or start or end with whitespace"
        )
    if cfg.mode not in (*MODES, "both"):
        raise ConfigError("mode: must be binomial, poisson or both")
    if cfg.side not in (*SIDES, "both"):
        raise ConfigError("side: must be out, in or both")
    if cfg.trials < 1:
        raise ConfigError("trials: must be >= 1")
    if cfg.parallelism < 1:
        raise ConfigError("parallelism: must be >= 1")
    if not 0 <= cfg.slack < math.inf:
        raise ConfigError("slack: must be finite and >= 0")
    for name in ("outer_samples", "ew_samples"):
        if getattr(cfg, name) < 1:
            raise ConfigError(f"{name}: must be >= 1")
    if not (0 < cfg.trunc_cap < 1):
        raise ConfigError("trunc_cap: must lie in (0, 1)")
    if any(n < 1 for n in cfg.n_grid):
        raise ConfigError("n_grid: every n must be >= 1")
    if not all(0 < r < 0.5 for r in cfg.r_grid):
        raise ConfigError("r_grid: every r must lie in (0, 0.5)")
    for descriptor in cfg.a_sets:
        try:
            DegreeSet.parse(descriptor)
        except ValueError as exc:
            raise ConfigError(f"a_sets: {exc}") from exc


def resolve_params(cfg: RunConfig, mode: str) -> ModelParams:
    """Build ModelParams, deriving the radius from ``mu_target`` only after
    the model's checks pass on a stand-in. A ``ValueError`` becomes a ``ConfigError``."""
    try:
        params = ModelParams(
            n=cfg.n, alpha=cfg.alpha, r=0.25 if cfg.r is None else cfg.r, v=cfg.v,
            q=cfg.q, mode=mode, master_seed=cfg.seed,
        )
        if cfg.r is None:
            r = radius_for_mean_degree(cfg.n, cfg.alpha, cfg.v, cfg.q, cfg.mu_target)
            params = replace(params, r=r)
        return params
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
