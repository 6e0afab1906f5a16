"""File formats: signal CSV / raw64, spectrum and component CSV, and flat
key = value config and synthesis files.

Floats are written with repr() so outputs are byte-stable across runs and
platforms for identical inputs.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

from .core import ComplexSignal, Spectrum
from .lab import SynthSpec, ToneSpec
from .pipeline import RecoveredComponent, HybridConfig, SparseSpectrum

COMPONENT_HEADER = ("freq_hz,re,im,magnitude,source_bin,collision_order,"
                    "match_distance_hz,residual")

_CONFIG_INT_KEYS = ("u", "s", "M", "extra_terms")
_CONFIG_OPT_INT_KEYS = ("stream_len", "max_peaks")
_CONFIG_FLOAT_KEYS = ("threshold", "sigma_rel_tol", "delta",
                      "ambiguity_factor")
_CONFIG_OPT_FLOAT_KEYS = ("merge_tol_hz", "match_tol_hz")
_CONFIG_BOOL_KEYS = ("wrap", "shortcut_shifted")
_CONFIG_STR_KEYS = ("resolver",)


def _fmt(value: float) -> str:
    return repr(float(value))


class FileFormatError(ValueError):
    """Malformed input file (bad header, cell, or key)."""


def read_signal_csv(path: str | Path, rate_hz: float) -> ComplexSignal:
    """Read a complex signal from CSV with header ``re,im``."""
    lines = Path(path).read_text().splitlines()
    rows = [ln.strip() for ln in lines if ln.strip()]
    if not rows or rows[0].replace(" ", "") != "re,im":
        raise FileFormatError(f"{path}: expected header 're,im'")
    samples = []
    for ln in rows[1:]:
        cells = ln.split(",")
        if len(cells) != 2:
            raise FileFormatError(f"{path}: expected two cells, got {ln!r}")
        try:
            samples.append(complex(float(cells[0]), float(cells[1])))
        except ValueError as exc:
            raise FileFormatError(f"{path}: bad number in {ln!r}") from exc
    if not samples:
        raise FileFormatError(f"{path}: no samples")
    return ComplexSignal(samples=np.array(samples), rate_hz=rate_hz)


def write_signal_csv(path: str | Path, x: ComplexSignal) -> None:
    lines = ["re,im"]
    for v in x.samples:
        lines.append(f"{_fmt(v.real)},{_fmt(v.imag)}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_signal_raw64(path: str | Path, rate_hz: float) -> ComplexSignal:
    """Read little-endian float64 (re, im) pairs."""
    raw = Path(path).read_bytes()
    if len(raw) == 0 or len(raw) % 16 != 0:
        raise FileFormatError(
            f"{path}: size {len(raw)} is not a positive multiple of 16")
    flat = np.frombuffer(raw, dtype="<f8")
    samples = flat[0::2] + 1j * flat[1::2]
    return ComplexSignal(samples=samples, rate_hz=rate_hz)


def write_signal_raw64(path: str | Path, x: ComplexSignal) -> None:
    flat = np.empty(2 * len(x), dtype="<f8")
    flat[0::2] = x.samples.real
    flat[1::2] = x.samples.imag
    Path(path).write_bytes(flat.tobytes())


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
    lines = Path(path).read_text().splitlines()
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
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise FileFormatError(f"{path}: expected 'key = value': {raw!r}")
        key, _, value = line.partition("=")
        pairs.append((key.strip(), value.strip()))
    return pairs


def _parse_bool(value: str, key: str, path) -> bool:
    low = value.lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise FileFormatError(f"{path}: bad boolean for {key}: {value!r}")


def read_config(path: str | Path) -> HybridConfig:
    """Parse a flat ``key = value`` config mirroring HybridConfig fields."""
    fields: dict = {}
    for key, value in _parse_kv_lines(path):
        try:
            if key in _CONFIG_INT_KEYS:
                fields[key] = int(value)
            elif key in _CONFIG_OPT_INT_KEYS:
                fields[key] = None if value.lower() == "none" else int(value)
            elif key in _CONFIG_FLOAT_KEYS:
                fields[key] = float(value)
            elif key in _CONFIG_OPT_FLOAT_KEYS:
                fields[key] = None if value.lower() == "none" \
                    else float(value)
            elif key in _CONFIG_BOOL_KEYS:
                fields[key] = _parse_bool(value, key, path)
            elif key in _CONFIG_STR_KEYS:
                fields[key] = value
            else:
                raise FileFormatError(f"{path}: unknown config key {key!r}")
        except ValueError as exc:
            if isinstance(exc, FileFormatError):
                raise
            raise FileFormatError(
                f"{path}: bad value for {key}: {value!r}") from exc
    for required in ("u", "s", "M"):
        if required not in fields:
            raise FileFormatError(f"{path}: missing required key {required}")
    return HybridConfig(**fields)


def write_config(path: str | Path, cfg: HybridConfig) -> None:
    lines = []
    for key in (_CONFIG_INT_KEYS + _CONFIG_FLOAT_KEYS + _CONFIG_STR_KEYS
                + _CONFIG_BOOL_KEYS + _CONFIG_OPT_INT_KEYS
                + _CONFIG_OPT_FLOAT_KEYS):
        value = getattr(cfg, key)
        if isinstance(value, bool):
            text = "true" if value else "false"
        elif value is None:
            text = "none"
        elif isinstance(value, float):
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
