"""File formats: signal CSV / raw64, spectrum and component CSV, flat
key = value config and synthesis files, and the tables and manifests the
experiments write.

Every text file goes through one cell formatter: floats by repr(), so
outputs are byte-stable across runs and platforms for identical inputs,
integers in decimal, strings as they are, None as ``none`` and booleans as
``true``/``false``. ``write_table`` writes CSV tables and
``write_key_values`` ``key = value`` files.

Files are read and written in one bounded pass. Every text reader iterates
the same line reader, which splits the file a block of READ_BLOCK
characters at a time, and writers hand ``writelines`` a stream of lines;
the signal CSV formats its samples CHUNK_ROWS rows at a time. So no file's
whole text sits in memory: a 2^20-sample signal CSV (41 MB, 16.8 MB of
samples) is read at a peak of 1.2x and written at 0.13x its sample bytes.
"""
from __future__ import annotations

import os
import typing
from contextlib import contextmanager
from dataclasses import MISSING, fields
from itertools import chain
from pathlib import Path
from types import NoneType

import numpy as np

from .core import ComplexSignal, SynthSpec, ToneSpec
from .pipeline import RecoveredComponent, HybridConfig, SparseSpectrum

COMPONENT_HEADER = ("freq_hz,re,im,magnitude,source_bin,collision_order,"
                    "match_distance_hz,residual")
# Rows of a signal CSV converted to Python floats at a time: the two lists
# of this many floats (2.1 MB) are the writer's largest allocation.
CHUNK_ROWS = 1 << 15
# Characters the line reader splits at a time, up to the next newline.
READ_BLOCK = 1 << 16


def _cell(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(value)
    if isinstance(value, str):
        return value
    return repr(float(value))


def _write_lines(path: str | Path, lines) -> None:
    """Write the iterable ``lines``, each ending in a newline, as UTF-8."""
    with open(path, "w", encoding="utf-8") as f:
        f.writelines(lines)


def write_table(path: str | Path, header, rows) -> None:
    """CSV: the ``header`` names, then one line of cells per row."""
    _write_lines(path, chain([",".join(header) + "\n"], (
        ",".join(map(_cell, row)) + "\n" for row in rows)))


def write_key_values(path: str | Path, entries) -> None:
    """One ``key = value`` line per (key, value) entry, in order."""
    _write_lines(path, (f"{key} = {_cell(value)}\n" for key, value in entries))


class FileFormatError(ValueError):
    """Malformed input file (bad header, cell, or key)."""


def _split_lines(f):
    # Whole lines a block at a time. Each block ends at a newline, so
    # splitlines() splits it where it would split the whole text: at \v,
    # \f, \x1c-\x1e, \x85, \u2028 and \u2029 too.
    while block := f.read(READ_BLOCK) + f.readline():
        yield from block.splitlines()


@contextmanager
def _lines(path: str | Path):
    """The stripped lines of UTF-8 text file ``path``, blank ones included,
    split as ``str.splitlines`` splits its universal-newline text. A byte
    that is not UTF-8, met anywhere in the ``with`` block, raises
    FileFormatError."""
    with open(path, encoding="utf-8") as f:
        try:
            yield map(str.strip, _split_lines(f))
        except UnicodeDecodeError as exc:
            raise FileFormatError(f"{path}: not UTF-8 text: {exc}") from exc


def _parse_rows(rows) -> np.ndarray:
    return np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)


def _bad_row_line(path: str | Path) -> int:
    """The file line of the first signal CSV row that np.loadtxt rejects."""
    with _lines(path) as lines:
        numbered = [(i, ln) for i, ln in enumerate(lines, 1) if ln]
    rows = [ln for _, ln in numbered]
    # The shortest failing prefix ends at the first bad row: bisect.
    lo, hi = 1, len(rows) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        try:
            _parse_rows(rows[1:mid + 1])
            lo = mid + 1
        except ValueError:
            hi = mid
    return numbered[lo][0]


def read_signal_csv(path: str | Path, rate_hz: float) -> ComplexSignal:
    """Read a complex signal from CSV with header ``re,im``.

    Blank lines are skipped; every other line after the header is one
    ``re,im`` pair in numpy's float syntax, streamed from the file into a
    single ``np.loadtxt`` call. A malformed row raises FileFormatError
    naming its line in the file, followed by numpy's message; so does a
    file that is not UTF-8 text.
    """
    with _lines(path) as lines:
        rows = filter(None, lines)
        if next(rows, "").replace(" ", "") != "re,im":
            raise FileFormatError(f"{path}: expected header 're,im'")
        # Checked before parsing: np.loadtxt warns on empty input.
        first = next(rows, None)
        if first is None:
            raise FileFormatError(f"{path}: no samples")
        try:
            cells = _parse_rows(chain([first], rows))
        except UnicodeDecodeError:
            # A ValueError too, but the with block reports it.
            raise
        except ValueError as exc:
            raise FileFormatError(
                f"{path}: line {_bad_row_line(path)}: {exc}") from exc
    if cells.shape[1] != 2:
        raise FileFormatError(
            f"{path}: expected two cells per row, got {cells.shape[1]}")
    # A complex view keeps each (re, im) pair's bits, signed zeros included.
    return ComplexSignal(samples=cells.view(np.complex128)[:, 0],
                         rate_hz=rate_hz)


def _signal_lines(samples: np.ndarray):
    yield "re,im\n"
    # Each sample's cells as _cell writes floats, from lists of Python
    # floats: converting a chunk at once is faster than cell by cell.
    for start in range(0, len(samples), CHUNK_ROWS):
        chunk = samples[start:start + CHUNK_ROWS]
        yield from map("{!r},{!r}\n".format, chunk.real.tolist(),
                       chunk.imag.tolist())


def write_signal_csv(path: str | Path, x: ComplexSignal) -> None:
    _write_lines(path, _signal_lines(x.samples))


def read_signal_raw64(path: str | Path, rate_hz: float) -> ComplexSignal:
    """Read little-endian complex128 samples: float64 (re, im) pairs."""
    size = os.path.getsize(path)
    if size == 0 or size % 16 != 0:
        raise FileFormatError(
            f"{path}: size {size} is not a positive multiple of 16")
    # fromfile's array is writable; astype copies only on a big-endian host.
    samples = np.fromfile(path, dtype="<c16").astype(np.complex128,
                                                     copy=False)
    return ComplexSignal(samples=samples, rate_hz=rate_hz)


def write_signal_raw64(path: str | Path, x: ComplexSignal) -> None:
    x.samples.astype("<c16", copy=False).tofile(path)


def write_spectrum_csv(path: str | Path, bins: np.ndarray,
                       bin_hz: float) -> None:
    """The DFT values ``bins``, bin j at j * ``bin_hz`` Hz."""
    write_table(path, ("bin_index", "freq_hz", "re", "im", "magnitude"), (
        (j, j * bin_hz, v.real, v.imag, abs(v)) for j, v in enumerate(bins)))


def write_components_csv(path: str | Path, result: SparseSpectrum) -> None:
    write_table(path, COMPONENT_HEADER.split(","), [
        (c.freq_hz, c.amplitude.real, c.amplitude.imag, abs(c.amplitude),
         c.source_bin, c.collision_order, c.match_distance_hz, c.residual)
        for c in result.components])


def read_components_csv(path: str | Path) -> list[RecoveredComponent]:
    out = []
    with _lines(path) as lines:
        rows = filter(None, lines)
        if next(rows, None) != COMPONENT_HEADER:
            raise FileFormatError(f"{path}: unexpected component header")
        for ln in rows:
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
    with _lines(path) as lines:
        for line in lines:
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise FileFormatError(
                    f"{path}: expected 'key = value': {line!r}")
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


def _field_schema(cls) -> dict[str, tuple[type, bool, bool]]:
    """Each scalar field of dataclass ``cls``: its value type, whether it
    accepts None and whether it is required. Other fields
    (``SynthSpec.tones``) are left out."""
    hints = typing.get_type_hints(cls)
    schema = {}
    for f in fields(cls):
        kinds = typing.get_args(hints[f.name]) or (hints[f.name],)
        base = next(k for k in kinds if k is not NoneType)
        if base in _PARSERS:
            schema[f.name] = (base, NoneType in kinds, f.default is MISSING)
    return schema


_CONFIG_SCHEMA = _field_schema(HybridConfig)
REQUIRED_CONFIG_KEYS = tuple(k for k, v in _CONFIG_SCHEMA.items() if v[2])
_SYNTH_SCHEMA = _field_schema(SynthSpec)


def _read_fields(path: str | Path, pairs, schema) -> dict:
    """Values of the ``key = value`` ``pairs`` read from ``path``. Each key
    of ``schema`` takes one value of its field's type, or ``none`` where
    the field is optional."""
    values: dict = {}
    for key, value in pairs:
        if key not in schema:
            raise FileFormatError(f"{path}: unknown key {key!r}")
        kind, optional, _ = schema[key]
        try:
            values[key] = (None if optional and value.lower() == "none"
                           else _PARSERS[kind](value))
        except ValueError as exc:
            raise FileFormatError(
                f"{path}: bad value for {key}: {value!r}") from exc
    for key, (_, _, required) in schema.items():
        if required and key not in values:
            raise FileFormatError(f"{path}: missing required key {key}")
    return values


def _field_entries(obj, schema) -> list[tuple[str, object]]:
    """(key, value) for each schema field of ``obj``, the value cast to the
    field's type, so that an int given for a float field is written as a
    float."""
    entries = []
    for key, (kind, _, _) in schema.items():
        value = getattr(obj, key)
        entries.append((key, value if value is None else kind(value)))
    return entries


def read_config(path: str | Path) -> HybridConfig:
    """Parse a flat ``key = value`` config whose keys, value types and
    required keys are those of the HybridConfig fields. An optional field
    takes the value ``none``. A value HybridConfig rejects raises
    FileFormatError, except NotCoprime, which is raised as it is."""
    values = _read_fields(path, _parse_kv_lines(path), _CONFIG_SCHEMA)
    try:
        return HybridConfig(**values)
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


def write_config(path: str | Path, cfg: HybridConfig) -> None:
    write_key_values(path, _field_entries(cfg, _CONFIG_SCHEMA))


def read_synth_spec(path: str | Path) -> SynthSpec:
    """Parse a synthesis file: the SynthSpec fields rate_hz, length and the
    optional snr_db and seed, read like a config, plus repeated
    ``tone = mu,re,im`` lines."""
    pairs = _parse_kv_lines(path)
    tones = []
    for value in (v for k, v in pairs if k == "tone"):
        try:
            mu, real, imag = (float(cell) for cell in value.split(","))
            tones.append(ToneSpec(mu_hz=mu, amplitude=complex(real, imag)))
        except ValueError as exc:
            raise FileFormatError(
                f"{path}: bad value for tone: {value!r}") from exc
    values = _read_fields(path, [p for p in pairs if p[0] != "tone"],
                          _SYNTH_SCHEMA)
    try:
        return SynthSpec(tones=tuple(tones), **values)
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


def write_synth_spec(path: str | Path, spec: SynthSpec) -> None:
    tones = [("tone", ",".join(_cell(float(v)) for v in (
        t.mu_hz, t.amplitude.real, t.amplitude.imag))) for t in spec.tones]
    write_key_values(path, _field_entries(spec, _SYNTH_SCHEMA) + tones)
