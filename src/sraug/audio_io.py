"""Mono waveform container, file I/O, and sample-rate conversion.

All audio inside the toolkit is a single channel of float64 samples with a
nominal range of [-1, 1].  Files are plain RIFF/WAVE: PCM-16, PCM-24 and
IEEE float-32 are accepted on read, also under WAVE_FORMAT_EXTENSIBLE;
PCM-16 mono is written.

This is the one module that opens files: every other module reads through
read_bytes and writes through write_atomic, which turn an OSError into
IoFailure.  It also holds the array and integer rules that every value
type and settings class checks its fields with.
"""

from __future__ import annotations

import contextlib
import math
import operator
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import IoFailure, MalformedContainer, UnsupportedFormat

WAVE_FORMAT_PCM = 1
WAVE_FORMAT_IEEE_FLOAT = 3
WAVE_FORMAT_EXTENSIBLE = 0xFFFE
# Sub-format GUIDs of WAVE_FORMAT_EXTENSIBLE are a 2-byte format tag
# followed by these 14 fixed bytes (KSDATAFORMAT_SUBTYPE_PCM and _IEEE_FLOAT).
_SUBFORMAT_GUID_TAIL = bytes.fromhex("000000001000800000aa00389b71")

# Windowed-sinc resampler parameters: Kaiser shape and zero-crossings per side.
_KAISER_BETA = 12.0
_ZERO_CROSSINGS = 64


@dataclass(frozen=True)
class Waveform:
    """Immutable mono audio snippet.

    samples: 1-D float array, nominal range [-1, 1], no NaN/Inf.
    sample_rate: sampling frequency in Hz, > 0.
    """

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        rate = _integer(self.sample_rate, "sample_rate", 1)
        samples = _frozen_array(self.samples, np.float64, 1, "samples")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "sample_rate", rate)

    def __len__(self) -> int:
        return self.samples.size

    @property
    def duration(self) -> float:
        """Length in seconds."""
        return self.samples.size / self.sample_rate


def _frozen_array(values, dtype, ndim: int, name: str, lower=None) -> np.ndarray:
    """A private, read-only copy of ``values`` as a finite ``ndim``-D ``dtype`` array.

    ValueError, naming ``name``, for a non-numeric entry, another rank,
    NaN, Inf, or an entry below ``lower`` when one is given.
    """
    try:
        array = np.array(values, dtype=dtype)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name} must be numeric: {exc}") from exc
    if array.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-D, got shape {array.shape}")
    if array.size and not np.isfinite(array).all():
        raise ValueError(f"{name} entries must be finite")
    if lower is not None and array.size and array.min() < lower:
        raise ValueError(f"{name} entries must be >= {lower:.6f}")
    array.flags.writeable = False
    return array


def _integer(value, name: str, minimum: int | None = None) -> int:
    """``value`` as an int.

    ValueError, naming ``name``, if it is not an integer or is below
    ``minimum`` when one is given.
    """
    try:
        number = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if minimum is not None and number < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {number}")
    return number


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def read_wav(path) -> Waveform:
    """Read a RIFF/WAVE file as a mono Waveform.

    PCM-16, PCM-24 and IEEE float-32 data are accepted, 1 or 2 channels;
    stereo is averaged down to mono.  A WAVE_FORMAT_EXTENSIBLE header is
    read through its sub-format GUID, which must name PCM or IEEE float.
    Integer samples are scaled by 2^(bits-1).  Unknown chunks are skipped.
    """
    blob = read_bytes(path)
    if len(blob) < 12:
        raise MalformedContainer(f"{path}: too short for a RIFF header")
    if blob[0:4] != b"RIFF" or blob[8:12] != b"WAVE":
        raise MalformedContainer(f"{path}: not a RIFF/WAVE file")

    fmt = None
    data = None
    pos = 12
    while pos + 8 <= len(blob):
        chunk_id = blob[pos : pos + 4]
        (chunk_size,) = struct.unpack_from("<I", blob, pos + 4)
        body = blob[pos + 8 : pos + 8 + chunk_size]
        if len(body) < chunk_size:
            raise MalformedContainer(f"{path}: truncated '{chunk_id!r}' chunk")
        if chunk_id == b"fmt ":
            fmt = body
        elif chunk_id == b"data":
            data = body
        pos += 8 + chunk_size + (chunk_size & 1)  # chunks are word-aligned

    if fmt is None:
        raise MalformedContainer(f"{path}: missing fmt chunk")
    if data is None:
        raise MalformedContainer(f"{path}: missing data chunk")
    if len(fmt) < 16:
        raise MalformedContainer(f"{path}: fmt chunk too small")

    format_tag, n_channels, sample_rate, _, block_align, bits = struct.unpack_from(
        "<HHIIHH", fmt
    )
    if format_tag == WAVE_FORMAT_EXTENSIBLE:
        if len(fmt) < 40:
            raise MalformedContainer(f"{path}: extensible fmt chunk too small")
        guid = fmt[24:40]
        if guid[2:] != _SUBFORMAT_GUID_TAIL:
            raise UnsupportedFormat(f"{path}: sub-format GUID {guid.hex()}")
        (format_tag,) = struct.unpack_from("<H", guid)
    if format_tag not in (WAVE_FORMAT_PCM, WAVE_FORMAT_IEEE_FLOAT):
        raise UnsupportedFormat(f"{path}: format tag {format_tag} (want 1 or 3)")
    if n_channels not in (1, 2):
        raise UnsupportedFormat(f"{path}: {n_channels} channels (want 1 or 2)")
    if format_tag == WAVE_FORMAT_PCM and bits not in (16, 24):
        raise UnsupportedFormat(f"{path}: {bits}-bit PCM (want 16 or 24)")
    if format_tag == WAVE_FORMAT_IEEE_FLOAT and bits != 32:
        raise UnsupportedFormat(f"{path}: {bits}-bit float (want 32)")
    if sample_rate == 0:
        raise MalformedContainer(f"{path}: zero sample rate")

    bytes_per_sample = bits // 8
    frame_size = bytes_per_sample * n_channels
    if block_align not in (0, frame_size):
        raise MalformedContainer(f"{path}: block align {block_align} != {frame_size}")
    if len(data) % frame_size != 0:
        raise MalformedContainer(f"{path}: data chunk is not a whole number of frames")

    if bits == 16:
        samples = np.frombuffer(data, dtype="<i2").astype(np.float64) / 2.0**15
    elif bits == 24:
        raw = np.frombuffer(data, dtype=np.uint8).reshape(-1, 3).astype(np.int32)
        ints = raw[:, 0] | (raw[:, 1] << 8) | (raw[:, 2] << 16)
        ints -= (ints & 0x800000) << 1  # sign-extend 24 -> 32 bits
        samples = ints.astype(np.float64) / 2.0**23
    else:
        samples = np.frombuffer(data, dtype="<f4").astype(np.float64)
        if samples.size and not np.isfinite(samples).all():
            raise MalformedContainer(f"{path}: non-finite float samples")

    if n_channels == 2:
        samples = samples.reshape(-1, 2).mean(axis=1)
    return Waveform(samples, int(sample_rate))


def write_wav(path, w: Waveform) -> None:
    """Write a Waveform as mono PCM-16 little-endian RIFF/WAVE.

    Samples are clamped to [-1, 1] and rounded half away from zero.
    """
    x = np.clip(w.samples, -1.0, 1.0) * 2.0**15
    ints = np.trunc(x + np.copysign(0.5, x))  # round half away from zero
    data = np.clip(ints, -32768, 32767).astype("<i2").tobytes()

    header = b"RIFF" + struct.pack("<I", 36 + len(data)) + b"WAVE"
    header += b"fmt " + struct.pack(
        "<IHHIIHH", 16, WAVE_FORMAT_PCM, 1, w.sample_rate, w.sample_rate * 2, 2, 16
    )
    header += b"data" + struct.pack("<I", len(data))
    write_atomic(path, [header, data])


def read_bytes(path) -> bytes:
    """The whole content of a file; IoFailure if it cannot be read."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc


def write_atomic(path, parts) -> None:
    """Write byte strings to ``path`` so that it never holds a partial file.

    The bytes go to a temp file beside ``path`` (a dot name ending in
    ``.tmp``, so ``*.wav`` never matches it), which os.replace then moves
    into place.  The temp file is removed if the write fails, and an
    OSError becomes IoFailure.
    """
    path = os.fspath(path)
    head, name = os.path.split(path)
    tmp = os.path.join(head, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            for part in parts:
                fh.write(part)
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        if isinstance(exc, OSError):
            raise IoFailure(f"cannot write {path}: {exc}") from exc
        raise


def resample(w: Waveform, target_rate: int) -> Waveform:
    """Convert a Waveform to ``target_rate`` with a Kaiser-windowed sinc.

    Band-limited interpolation: the kernel is a sinc at the lower of the
    two Nyquist frequencies under a Kaiser window (beta 12.0, 64
    zero-crossings per side).  Output length is round(len * target / source).
    Equal rates return the input unchanged.

    Polyphase form: with the rate ratio reduced to L/M (target/source over
    their gcd), output n sits at input position n*M/L, i.e. at input
    sample (n*M)//L plus the fraction p/L with p = n*M mod L.  The kernel
    taps depend on that phase p alone, so each chunk of outputs evaluates
    sinc x Kaiser once per distinct phase (at most min(L, chunk) rows) and
    gathers its rows from that table.
    """
    target_rate = _integer(target_rate, "target_rate", 1)
    if target_rate == w.sample_rate:
        return w
    n_in = len(w)
    n_out = _round_half_up(n_in * target_rate / w.sample_rate)
    if n_in == 0 or n_out == 0:
        return Waveform(np.zeros(n_out), target_rate)

    scale = min(1.0, target_rate / w.sample_rate)  # anti-alias cutoff factor
    half_width = _ZERO_CROSSINGS / scale  # kernel support per side, input samples
    width = int(math.ceil(half_width))
    padded = np.concatenate([np.zeros(width), w.samples, np.zeros(width)])
    offsets = np.arange(-width, width + 1)

    g = math.gcd(target_rate, w.sample_rate)
    up, down = target_rate // g, w.sample_rate // g
    out = np.empty(n_out)
    # Chunk over output samples so the gather matrix stays small.
    chunk = max(1, int(4e6) // (2 * width + 1))
    for start in range(0, n_out, chunk):
        n = np.arange(start, min(start + chunk, n_out), dtype=np.int64)
        base = np.minimum(n * down // up, n_in - 1)
        phases, row = np.unique(n * down - base * up, return_inverse=True)
        tau = phases[:, None] / up - offsets[None, :]
        table = scale * np.sinc(scale * tau) * _kaiser(tau / half_width)
        gathered = padded[base[:, None] + offsets[None, :] + width]
        out[n] = np.einsum("ij,ij->i", gathered, table[row])
    return Waveform(out, target_rate)


def _kaiser(u: np.ndarray) -> np.ndarray:
    """Kaiser window evaluated at normalized positions u in [-1, 1]."""
    inside = np.abs(u) < 1.0
    arg = np.where(inside, 1.0 - u * u, 0.0)
    return np.where(inside, np.i0(_KAISER_BETA * np.sqrt(arg)), 0.0) / np.i0(
        _KAISER_BETA
    )
