"""Experiment configuration: flat "key = value" text with bracketed sections.

The format is deliberately dependency-free and diff-friendly: one
``key = value`` per line, sections in brackets, comments starting with '#'.
Parsing reports every problem it finds (with line numbers), not just the
first; unknown keys and duplicates are rejected.  A parsed configuration
round-trips losslessly through :meth:`ExperimentConfig.to_text`, and
:func:`config_hash` of that canonical text keys all output artifacts.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields

import numpy as np

from .asymptotics import SourceVariant, _window_mask
from .dynamics import SIMULATION_FORMS, RhsForm
from .errors import ConfigError
from .fields import INITIAL_KINDS

__all__ = [
    "ExperimentConfig",
    "parse_config",
    "parse_config_file",
    "config_hash",
    "validate_config",
]

DIAGNOSTIC_NAMES = ("persistence", "asymptotics", "analyticity")
VARIANT_NAMES = {"thm41": SourceVariant.MEAN, "thm43": SourceVariant.RMS}
#: The largest grid a run may ask for: one field on it takes 32 MiB.
MAX_N = 2**22


def _parse_bool(text):
    t = text.lower()
    if t in ("true", "yes", "1", "on"):
        return True
    if t in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_float(text):
    t = text.lower()
    if t in ("inf", "infinity"):
        return float("inf")
    return float(text)


def _parse_optional(parser):
    def run(text):
        if text.lower() in ("none", "auto", ""):
            return None
        return parser(text)

    return run


def _parse_float_tuple(count):
    def run(text):
        parts = [part.strip() for part in text.split(",")]
        if len(parts) != count:
            raise ValueError(f"expected {count} comma-separated numbers, got {len(parts)}")
        return tuple(float(part) for part in parts)

    return run


def _choice(what: str, names):
    """A parser that accepts one of ``names`` as written; ``what`` names it in the error."""
    names = tuple(names)

    def run(text):
        if text not in names:
            raise ValueError(f"unknown {what} {text!r}; choose from {names}")
        return text

    return run


def _parse_run_list(text):
    if text.lower() in ("none", ""):
        return ()
    diagnostic = _choice("diagnostic", DIAGNOSTIC_NAMES)
    return tuple(diagnostic(part.strip()) for part in text.split(","))


def _parse_form(text):
    try:
        form = RhsForm(text.lower())
    except ValueError:
        names = ", ".join(form.value for form in RhsForm)
        raise ValueError(f"unknown form {text!r}; choose from {names}") from None
    if form not in SIMULATION_FORMS:
        raise ValueError(f"form {form.value!r} is diagnostic-only and cannot be simulated")
    return form


def _parse_dealias(text):
    if not _parse_bool(text):
        raise ValueError("dealiasing is no longer optional; products are always 2/3-truncated")
    return True


def _parse_d(text):
    """The retired hypothesis exponent ``[diagnostics] d``, checked as d > 1/2 but not used."""
    d = _parse_float(text)
    if not np.isfinite(d):
        raise ValueError(f"d must be finite, got {d}")
    if d <= 0.5:
        raise ValueError(f"d must exceed 1/2, got {d}")
    return d


def _key(section: str, parser, default, key: str | None = None):
    """A stored field, read from ``[section] key`` by ``parser``; ``key`` defaults to its name."""
    return field(default=default, metadata={"section": section, "key": key, "parser": parser})


@dataclass
class ExperimentConfig:
    # to_text writes the keys in this order, and config_hash covers that text
    n: int = _key("grid", int, 1024)
    L: float = _key("grid", _parse_float, 40.0)
    T: float = _key("time", _parse_float, 0.5)
    snapshot_stride: int = _key("time", int, 1)
    dt: float | None = _key("time", _parse_optional(_parse_float), None)
    kind: str = _key("initial", _choice("initial kind", INITIAL_KINDS), "sech2")
    amplitude: float = _key("initial", _parse_float, 0.05)
    width: float = _key("initial", _parse_float, 1.0)
    center: float = _key("initial", _parse_float, 0.0)
    path: str | None = _key("initial", _parse_optional(str), None)
    phi: tuple = _key("weights", _parse_float_tuple(4), (0.0, 0.0, 2.0, 0.0))
    p: float = _key("weights", _parse_float, np.inf)
    N: float | None = _key("weights", _parse_optional(_parse_float), None)
    run: tuple = _key("diagnostics", _parse_run_list, ())
    window: tuple | None = _key("diagnostics", _parse_optional(_parse_float_tuple(2)), None)
    variant: str = _key("diagnostics", _choice("variant", VARIANT_NAMES), "thm41")
    t_star: float | None = _key("diagnostics", _parse_optional(_parse_float), None)
    psi_literal: bool = _key("diagnostics", _parse_bool, False)
    out_dir: str = _key("output", str, "out", key="dir")

    @property
    def source_variant(self) -> SourceVariant:
        return VARIANT_NAMES[self.variant]

    def resolved_window(self) -> tuple:
        """Default tail window [0.25 L, 0.5 L] unless set explicitly."""
        if self.window is not None:
            return self.window
        return (0.25 * self.L, 0.5 * self.L)

    def to_text(self) -> str:
        """Canonical serialization; parse_config(to_text()) reproduces self.

        A string that would not read back raises ValueError: one holding '#'
        or a line break, with surrounding blanks, or parsed as another value.
        """
        lines, section = [], None
        for (sec, key), (attr, parser) in _STORED.items():
            if sec != section:
                lines.append(f"[{sec}]")
                section = sec
            value = getattr(self, attr)
            text = _format(value)
            # parse_config reads one line, cut at '#' and stripped of blanks
            whole = len(text.splitlines()) <= 1 and text.split("#", 1)[0].strip() == text
            if isinstance(value, str) and not (whole and parser(text) == value):
                raise ValueError(f"{sec}.{key} = {value!r} cannot be read back from config text")
            lines.append(f"{key} = {text}")
        return "\n".join(lines) + "\n"


def _format(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if value == np.inf:
        return "inf"
    if isinstance(value, (tuple, list)):
        return ",".join(_format(item) for item in value) if value else "none"
    return repr(float(value)) if isinstance(value, float) else str(value)


def config_hash(cfg: ExperimentConfig) -> str:
    """Short provenance hash of the canonical serialization."""
    return hashlib.sha256(cfg.to_text().encode()).hexdigest()[:12]


# (section, key) -> (attribute, parser) of every stored field, in the order of to_text
_STORED = {
    (f.metadata["section"], f.metadata["key"] or f.name): (f.name, f.metadata["parser"])
    for f in fields(ExperimentConfig)
}
# keys no run reads, still accepted and checked so that older files parse, but not stored
_SCHEMA = {
    **_STORED,
    ("dynamics", "form"): (None, _parse_form),
    ("dynamics", "dealias"): (None, _parse_dealias),
    ("diagnostics", "d"): (None, _parse_d),
    ("output", "seed"): (None, int),
}
_SECTIONS = {section for section, _ in _SCHEMA}


def _validate(cfg: ExperimentConfig, errors: list) -> None:
    for (_, key), (attr, _) in _STORED.items():
        value = getattr(cfg, attr)
        items = value if isinstance(value, tuple) else (value,)
        if attr == "p" and value == np.inf:
            continue
        if any(isinstance(x, float) and not np.isfinite(x) for x in items):
            errors.append(f"{key} must be finite, got {value}")
    if cfg.n < 16 or (cfg.n & (cfg.n - 1)) != 0 or cfg.n > MAX_N:
        errors.append(f"n must be a power of two in [16, MAX_N = {MAX_N}], got {cfg.n}")
    if cfg.L <= 0:
        errors.append(f"L must be positive, got {cfg.L}")
    if cfg.T <= 0:
        errors.append(f"T must be positive, got {cfg.T}")
    if cfg.snapshot_stride < 1:
        errors.append(f"snapshot_stride must be >= 1, got {cfg.snapshot_stride}")
    if cfg.dt is not None and cfg.dt <= 0:
        errors.append(f"dt must be positive, got {cfg.dt}")
    if cfg.width <= 0:
        errors.append(f"width must be positive, got {cfg.width}")
    if cfg.kind == "file" and cfg.path is None:
        errors.append("initial kind 'file' requires a path")
    if not (np.isinf(cfg.p) or cfg.p >= 1):
        errors.append(f"p must lie in [1, inf], got {cfg.p}")
    if cfg.N is not None and cfg.N <= 0:
        errors.append(f"N must be positive, got {cfg.N}")
    if cfg.window is not None and not 0.2 * cfg.L < cfg.window[0] < cfg.window[1] < 0.8 * cfg.L:
        errors.append(f"window must satisfy 0.2 L < x_lo < x_hi < 0.8 L, got {cfg.window}")
    elif cfg.window is not None and cfg.n > 0:
        dx = 2.0 * cfg.L / cfg.n
        for sign in (1.0, -1.0):
            # the first node of Grid(n, L) past the side's lower end is one of these four
            j = int((min(sign * cfg.window[0], sign * cfg.window[1]) + cfg.L) // dx)
            nodes = (-cfg.L + dx * k for k in range(j - 1, j + 3))
            if not any(_window_mask(x, cfg.window, sign) for x in nodes):
                errors.append(f"window {cfg.window} holds no grid node (dx = {dx:g})")
                break
    if cfg.t_star is not None and not (0 < cfg.t_star <= cfg.T):
        errors.append(f"t_star must lie in (0, T], got {cfg.t_star}")


def validate_config(cfg: ExperimentConfig) -> None:
    """Raise ConfigError for values that ``parse_config`` would reject.

    For a config built in code: it is checked through its canonical text, so
    it meets every check ``parse_config`` makes, types and names included,
    and :func:`config_hash` afterwards keys a text that reads back.
    """
    try:
        text = cfg.to_text()
    except ValueError as exc:
        raise ConfigError([str(exc)]) from None
    parse_config(text)


def parse_config(text: str) -> ExperimentConfig:
    """Parse configuration text; raises ConfigError with every problem found."""
    errors: list[str] = []
    seen: dict = {}
    cfg = ExperimentConfig()
    section = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SECTIONS:
                errors.append(f"line {lineno}: unknown section [{section}]")
                section = None
            continue
        if "=" not in line:
            errors.append(f"line {lineno}: expected 'key = value', got {line!r}")
            continue
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if section is None:
            errors.append(f"line {lineno}: key {key!r} outside any section")
            continue
        if (section, key) not in _SCHEMA:
            errors.append(f"line {lineno}: unknown key '{section}.{key}'")
            continue
        if (section, key) in seen:
            errors.append(
                f"line {lineno}: duplicate key '{section}.{key}' "
                f"(first set at line {seen[(section, key)]})"
            )
            continue
        seen[(section, key)] = lineno
        attr, parser = _SCHEMA[(section, key)]
        try:
            value = parser(value)
        except (ValueError, TypeError) as exc:
            errors.append(f"line {lineno}: {section}.{key}: {exc}")
            continue
        if attr is not None:
            setattr(cfg, attr, value)

    _validate(cfg, errors)
    if errors:
        raise ConfigError(errors)
    return cfg


def parse_config_file(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError([f"cannot read configuration {path}: {exc}"]) from None
    return parse_config(text)
