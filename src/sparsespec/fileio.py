"""File formats: signal CSV / raw64, spectrum and component CSV, and flat
key = value config and synthesis files.

Floats are written with repr() so outputs are byte-stable across runs and
platforms for identical inputs.
"""
from __future__ import annotations

import typing
from dataclasses import MISSING, fields
from pathlib import Path
from types import NoneType

import numpy as np

from .core import ComplexSignal, Spectrum
from .lab import SynthSpec, ToneSpec
from .pipeline import RecoveredComponent, HybridConfig, SparseSpectrum

COMPONENT_HEADER = ("freq_hz,re,im,magnitude,source_bin,collision_order,"
                    "match_distance_hz,residual")


def _fmt(value: float) -> str:
    return repr(float(value))


class FileFormatError(ValueError):
    """Malformed input file (bad header, cell, or key)."""


def _read_text(path: str | Path) -> str:
    try:
        return Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"{path}: not UTF-8 text: {exc}") from exc


def _parse_rows(rows: list[str]) -> np.ndarray:
    return np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)


def read_signal_csv(path: str | Path, rate_hz: float) -> ComplexSignal:
    """Read a complex signal from CSV with header ``re,im``.

    Blank lines are skipped; every other line after the header is one
    ``re,im`` pair in numpy's float syntax, parsed by a single
    ``np.loadtxt`` call. A malformed row raises FileFormatError naming its
    line in the file, followed by numpy's message; so does a file that is
    not UTF-8 text.
    """
    lines = _read_text(path).splitlines()
    rows = [ln.strip() for ln in lines if ln.strip()]
    if not rows or rows[0].replace(" ", "") != "re,im":
        raise FileFormatError(f"{path}: expected header 're,im'")
    # Checked before parsing: np.loadtxt warns on empty input.
    if len(rows) == 1:
        raise FileFormatError(f"{path}: no samples")
    try:
        cells = _parse_rows(rows[1:])
    except ValueError as exc:
        # The shortest failing prefix ends at the first bad row: bisect.
        lo, hi = 1, len(rows) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            try:
                _parse_rows(rows[1:mid + 1])
                lo = mid + 1
            except ValueError:
                hi = mid
        line = [i for i, ln in enumerate(lines, 1) if ln.strip()][lo]
        raise FileFormatError(f"{path}: line {line}: {exc}") from exc
    if cells.shape[1] != 2:
        raise FileFormatError(
            f"{path}: expected two cells per row, got {cells.shape[1]}")
    # A complex view keeps each (re, im) pair's bits, signed zeros included.
    return ComplexSignal(samples=cells.view(np.complex128)[:, 0],
                         rate_hz=rate_hz)


def write_signal_csv(path: str | Path, x: ComplexSignal) -> None:
    lines = ["re,im"]
    for v in x.samples:
        lines.append(f"{_fmt(v.real)},{_fmt(v.imag)}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_signal_raw64(path: str | Path, rate_hz: float) -> ComplexSignal:
    """Read little-endian complex128 samples: float64 (re, im) pairs."""
    raw = Path(path).read_bytes()
    if len(raw) == 0 or len(raw) % 16 != 0:
        raise FileFormatError(
            f"{path}: size {len(raw)} is not a positive multiple of 16")
    # The copy makes the buffer writable and in native byte order.
    samples = np.frombuffer(raw, dtype="<c16").astype(np.complex128)
    return ComplexSignal(samples=samples, rate_hz=rate_hz)


def write_signal_raw64(path: str | Path, x: ComplexSignal) -> None:
    Path(path).write_bytes(x.samples.astype("<c16").tobytes())


def write_spectrum_csv(path: str | Path, spectrum: Spectrum) -> None:
    lines = ["bin_index,freq_hz,re,im,magnitude"]
    for j, v in enumerate(spectrum.bins):
        lines.append(",".join([
            str(j), _fmt(j * spectrum.bin_hz), _fmt(v.real), _fmt(v.imag),
            _fmt(abs(v))]))
    Path(path).write_text("\n".join(lines) + "\n")


def write_components_csv(path: str | Path, result: SparseSpectrum) -> None:
    lines = [COMPONENT_HEADER]
    for c in result.components:
        lines.append(",".join([
            _fmt(c.freq_hz), _fmt(c.amplitude.real), _fmt(c.amplitude.imag),
            _fmt(abs(c.amplitude)), str(c.source_bin),
            str(c.collision_order), _fmt(c.match_distance_hz),
            _fmt(c.residual)]))
    Path(path).write_text("\n".join(lines) + "\n")


def read_components_csv(path: str | Path) -> list[RecoveredComponent]:
    lines = _read_text(path).splitlines()
    rows = [ln.strip() for ln in lines if ln.strip()]
    if not rows or rows[0] != COMPONENT_HEADER:
        raise FileFormatError(f"{path}: unexpected component header")
    out = []
    for ln in rows[1:]:
        cells = ln.split(",")
        if len(cells) != 8:
            raise FileFormatError(f"{path}: expected 8 cells in {ln!r}")
        try:
            out.append(RecoveredComponent(
                freq_hz=float(cells[0]),
                amplitude=complex(float(cells[1]), float(cells[2])),
                source_bin=int(cells[4]),
                collision_order=int(cells[5]),
                match_distance_hz=float(cells[6]),
                residual=float(cells[7])))
        except ValueError as exc:
            raise FileFormatError(f"{path}: bad cell in {ln!r}") from exc
    return out


def _parse_kv_lines(path: str | Path) -> list[tuple[str, str]]:
    pairs = []
    for raw in _read_text(path).splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise FileFormatError(f"{path}: expected 'key = value': {raw!r}")
        key, _, value = line.partition("=")
        pairs.append((key.strip(), value.strip()))
    return pairs


def _parse_bool(value: str) -> bool:
    low = value.lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {value!r}")


_PARSERS = {int: int, float: float, bool: _parse_bool, str: str}


def _config_schema() -> dict[str, tuple[type, bool]]:
    """Each HybridConfig field's value type and whether it accepts None."""
    hints = typing.get_type_hints(HybridConfig)
    schema = {}
    for f in fields(HybridConfig):
        kinds = typing.get_args(hints[f.name]) or (hints[f.name],)
        base = next(k for k in kinds if k is not NoneType)
        schema[f.name] = (base, NoneType in kinds)
    return schema


_CONFIG_SCHEMA = _config_schema()
REQUIRED_CONFIG_KEYS = tuple(f.name for f in fields(HybridConfig)
                             if f.default is MISSING)


def read_config(path: str | Path) -> HybridConfig:
    """Parse a flat ``key = value`` config whose keys, value types and
    required keys are those of the HybridConfig fields. An optional field
    takes the value ``none``."""
    values: dict = {}
    for key, value in _parse_kv_lines(path):
        if key not in _CONFIG_SCHEMA:
            raise FileFormatError(f"{path}: unknown config key {key!r}")
        kind, optional = _CONFIG_SCHEMA[key]
        try:
            values[key] = (None if optional and value.lower() == "none"
                           else _PARSERS[kind](value))
        except ValueError as exc:
            raise FileFormatError(
                f"{path}: bad value for {key}: {value!r}") from exc
    for required in REQUIRED_CONFIG_KEYS:
        if required not in values:
            raise FileFormatError(f"{path}: missing required key {required}")
    return HybridConfig(**values)


def write_config(path: str | Path, cfg: HybridConfig) -> None:
    lines = []
    for key, (kind, _) in _CONFIG_SCHEMA.items():
        value = getattr(cfg, key)
        if value is None:
            text = "none"
        elif kind is bool:
            text = "true" if value else "false"
        elif kind is float:
            text = _fmt(value)
        else:
            text = str(value)
        lines.append(f"{key} = {text}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_synth_spec(path: str | Path) -> SynthSpec:
    """Parse a synthesis file: rate_hz, length, optional snr_db and seed,
    plus repeated ``tone = mu,re,im`` lines."""
    rate = None
    length = None
    snr: float | None = None
    seed = 0
    tones: list[ToneSpec] = []
    for key, value in _parse_kv_lines(path):
        try:
            if key == "rate_hz":
                rate = float(value)
            elif key == "length":
                length = int(value)
            elif key == "snr_db":
                snr = None if value.lower() == "none" else float(value)
            elif key == "seed":
                seed = int(value)
            elif key == "tone":
                cells = value.split(",")
                if len(cells) != 3:
                    raise FileFormatError(
                        f"{path}: tone needs mu,re,im: {value!r}")
                tones.append(ToneSpec(
                    mu_hz=float(cells[0]),
                    amplitude=complex(float(cells[1]), float(cells[2]))))
            else:
                raise FileFormatError(f"{path}: unknown key {key!r}")
        except ValueError as exc:
            if isinstance(exc, FileFormatError):
                raise
            raise FileFormatError(
                f"{path}: bad value for {key}: {value!r}") from exc
    if rate is None or length is None:
        raise FileFormatError(f"{path}: rate_hz and length are required")
    return SynthSpec(tones=tuple(tones), rate_hz=rate, length=length,
                     snr_db=snr, seed=seed)


def write_synth_spec(path: str | Path, spec: SynthSpec) -> None:
    lines = [
        f"rate_hz = {_fmt(spec.rate_hz)}",
        f"length = {spec.length}",
        f"snr_db = {'none' if spec.snr_db is None else _fmt(spec.snr_db)}",
        f"seed = {spec.seed}",
    ]
    for tone in spec.tones:
        lines.append(f"tone = {_fmt(tone.mu_hz)},"
                     f"{_fmt(tone.amplitude.real)},"
                     f"{_fmt(tone.amplitude.imag)}")
    Path(path).write_text("\n".join(lines) + "\n")
