"""Mono waveform container, file I/O, and sample-rate conversion.

All audio inside the toolkit is a single channel of float64 samples with a
nominal range of [-1, 1].  Files are plain RIFF/WAVE: PCM-16, PCM-24 and
IEEE float-32 are accepted on read, also under WAVE_FORMAT_EXTENSIBLE;
PCM-16 mono is written.

This is the one module that opens files: every other module reads through
read_bytes and writes through write_atomic, which turn an OSError into
IoFailure.  It also holds the array, integer and real-number rules that
every value type and settings class checks its fields with.
"""

from __future__ import annotations

import contextlib
import math
import numbers
import operator
import os
import struct
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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
_I0_BETA = np.i0(_KAISER_BETA)  # the window's value at its centre, before scaling
# Kernel taps that resample evaluates at a time (64 kB per float64 temporary),
# or one kernel row where a row is longer.
_BLOCK_TAPS = 8_192
# The longest kernel resample accepts: downsampling by up to about 512x.
_MAX_TAPS = 65_536
# Samples that write_wav converts to PCM-16 at a time.
_WRITE_BLOCK = 65_536


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
        samples = _frozen_array(self.samples, np.float64, (None,), "samples")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "sample_rate", rate)

    def __len__(self) -> int:
        return self.samples.size

    @property
    def duration(self) -> float:
        """Length in seconds."""
        return self.samples.size / self.sample_rate


@dataclass(frozen=True)
class _Owned:
    """An array the library has just built and hands to a value type.

    _frozen_array takes it over as it is, dtype included, without a copy.
    """

    array: np.ndarray


def _frozen_array(values, dtype, shape, name: str, lower=None, upper=None) -> np.ndarray:
    """A private, read-only copy of ``values`` as a finite ``dtype`` array of ``shape``.

    ``shape`` has one entry per axis: an int fixes that axis's length, and
    None takes any.  A ``shape`` of None takes any rank.  An _Owned array
    is checked and frozen in place instead.  ValueError, naming ``name``,
    for a non-numeric entry, another shape, NaN, Inf, or an entry below
    ``lower`` or above ``upper`` when one is given.
    """
    if isinstance(values, _Owned):
        array = values.array
    else:
        try:
            array = np.array(values, dtype=dtype)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{name} must be numeric: {exc}") from exc
    if shape is not None and (
        array.ndim != len(shape) or any(n not in (None, got) for n, got in zip(shape, array.shape))
    ):
        raise ValueError(f"{name} must have shape {shape}, got {array.shape}")
    if array.size:
        bounds = _finite_range(array.real)
        if bounds is None or (np.iscomplexobj(array) and _finite_range(array.imag) is None):
            raise ValueError(f"{name} entries must be finite")
        if lower is not None and bounds[0] < lower:
            raise ValueError(f"{name} entries must be >= {lower:.6f}")
        if upper is not None and bounds[1] > upper:
            raise ValueError(f"{name} entries must be <= {upper:.6f}")
    array.flags.writeable = False
    return array


def _finite_range(array: np.ndarray):
    """The least and greatest entries of a non-empty real ``array``; None if one is not finite.

    A NaN makes min() and max() NaN, and an infinity is one of them, so
    that pair tells with no whole-array temporary.
    """
    low, high = array.min(), array.max()
    return (low, high) if -math.inf < low <= high < math.inf else None


def _integer(value, name: str, minimum: int) -> int:
    """``value`` as an int.

    ValueError, naming ``name``, if it is not an integer or is below
    ``minimum``.
    """
    try:
        number = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if number < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {number}")
    return number


def _real(value, name: str) -> float:
    """``value`` as a float.

    ValueError, naming ``name``, if it is not a finite real number.
    """
    if isinstance(value, numbers.Real):
        with contextlib.suppress(OverflowError):  # an int beyond float range
            number = float(value)
            if math.isfinite(number):
                return number
    raise ValueError(f"{name} must be a finite real number, got {value!r}")


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def read_wav(path) -> Waveform:
    """Read a RIFF/WAVE file as a mono Waveform.

    PCM-16, PCM-24 and IEEE float-32 data are accepted, 1 or 2 channels;
    stereo is averaged down to mono.  A WAVE_FORMAT_EXTENSIBLE header is
    read through its sub-format GUID, which must name PCM or IEEE float.
    Integer samples are scaled by 2^(bits-1).  Unknown chunks are skipped.
    The peak is the file, the float64 samples and 4 B a PCM-24 sample.
    """
    blob = memoryview(read_bytes(path))
    if len(blob) < 12:
        raise MalformedContainer(f"{path}: too short for a RIFF header")
    if blob[0:4] != b"RIFF" or blob[8:12] != b"WAVE":
        raise MalformedContainer(f"{path}: not a RIFF/WAVE file")

    fmt = data = None
    pos = 12
    while pos + 8 <= len(blob):
        chunk_id = bytes(blob[pos : pos + 4])
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

    frame_size = bits // 8 * n_channels
    if block_align not in (0, frame_size):
        raise MalformedContainer(f"{path}: block align {block_align} != {frame_size}")
    if len(data) % frame_size != 0:
        raise MalformedContainer(f"{path}: data chunk is not a whole number of frames")

    if bits == 24:
        # Each sample in the top three bytes of a word: one shift sign-extends it.
        words = np.zeros((len(data) // 3, 4), np.uint8)
        words[:, 1:] = np.frombuffer(data, np.uint8).reshape(-1, 3)
        stored = words.view("<i4")[:, 0]
        stored >>= 8
    else:
        stored = np.frombuffer(data, "<i2" if bits == 16 else "<f4")
    if format_tag == WAVE_FORMAT_IEEE_FLOAT and stored.size and _finite_range(stored) is None:
        raise MalformedContainer(f"{path}: non-finite float samples")
    # The channels' sum times a power of two: every step is exact.
    samples = stored[::n_channels].astype(np.float64)
    if n_channels == 2:
        samples += stored[1::2]
    samples *= (2.0 ** (1 - bits) if format_tag == WAVE_FORMAT_PCM else 1.0) / n_channels
    return Waveform(_Owned(samples), int(sample_rate))


def write_wav(path, w: Waveform) -> None:
    """Write a Waveform as mono PCM-16 little-endian RIFF/WAVE.

    Samples are clamped to [-1, 1] and rounded half away from zero,
    _WRITE_BLOCK at a time into the PCM-16 array that is written.
    UnsupportedFormat if the u32 byte rate, 2 * sample_rate, overflows.
    """
    if w.sample_rate * 2 >= 2**32:
        raise UnsupportedFormat(f"{path}: sample rate {w.sample_rate} Hz is too high for WAV")
    data = np.empty(len(w), "<i2")
    for start in range(0, data.size, _WRITE_BLOCK):
        x = np.clip(w.samples[start : start + _WRITE_BLOCK], -1.0, 1.0) * 2.0**15
        ints = np.trunc(x + np.copysign(0.5, x))  # round half away from zero
        data[start : start + _WRITE_BLOCK] = np.clip(ints, -32768, 32767)

    header = b"RIFF" + struct.pack("<I", 36 + data.nbytes) + b"WAVE"
    header += b"fmt " + struct.pack(
        "<IHHIIHH", 16, WAVE_FORMAT_PCM, 1, w.sample_rate, w.sample_rate * 2, 2, 16
    )
    header += b"data" + struct.pack("<I", data.nbytes)
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

    Phase-major polyphase form: with the rate ratio reduced to L/M
    (target/source over their gcd), output n sits at input sample
    (n*M)//L plus the fraction p/L with p = n*M mod L, and the kernel taps
    depend on that phase p alone.  The outputs first, first+L, first+2L, ...
    share one phase and their input windows lie M samples apart, so each
    such run is one strided view of the input times one kernel row,
    written into its strided slice of the output.  Only the outputs whose
    windows reach past either end of the input (about 64 per end) read a
    small zero-padded copy of that end instead.  The rows are evaluated in
    blocks of at most _BLOCK_TAPS taps (one row where a row is longer), so
    beyond its input and output resample holds one bounded block, whatever
    L is.  A kernel of more than _MAX_TAPS taps (downsampling by more than
    about 512x) raises ValueError before anything is allocated.
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
    taps = 2 * width + 1
    if taps > _MAX_TAPS:
        raise ValueError(
            f"cannot resample {w.sample_rate} Hz to {target_rate} Hz: the kernel would "
            f"have {taps} taps, more than {_MAX_TAPS}"
        )
    # The window centred on input sample b is row b - width of the input's
    # own windows when width <= b < n_in - width.  Nearer the start it is
    # row b of the zero-padded first 2 * width samples, nearer the end row
    # b - tail_origin of the zero-padded last 2 * width.
    zeros = np.zeros(width)
    head = sliding_window_view(np.concatenate([zeros, w.samples[: 2 * width], zeros]), taps)
    tail = sliding_window_view(np.concatenate([zeros, w.samples[-2 * width :], zeros]), taps)
    tail_origin = max(0, n_in - 2 * width)
    windows = sliding_window_view(w.samples, taps) if n_in >= taps else None
    offsets = np.arange(-width, width + 1)

    g = math.gcd(target_rate, w.sample_rate)
    up, down = target_rate // g, w.sample_rate // g
    out = np.empty(n_out)
    rows = max(1, _BLOCK_TAPS // taps)  # kernel rows evaluated at a time
    for start in range(0, min(up, n_out), rows):
        firsts = np.arange(start, min(start + rows, up, n_out), dtype=np.int64)
        bases, phases = np.divmod(firsts * down, up)
        tau = phases[:, None] / up - offsets[None, :]
        table = scale * np.sinc(scale * tau) * _kaiser(tau / half_width)
        for first, base, row in zip(firsts.tolist(), bases.tolist(), table):
            run = out[first::up]
            inside = min(max(0, (width - base + down - 1) // down), run.size)
            beyond = min(max(inside, (n_in - width - base + down - 1) // down), run.size)
            for lo, hi, views, origin in (
                (0, inside, head, 0),
                (inside, beyond, windows, width),
                (beyond, run.size, tail, tail_origin),
            ):
                if lo < hi:
                    b = base + lo * down - origin
                    np.einsum("ij,j->i", views[b::down][: hi - lo], row, out=run[lo:hi])
    return Waveform(_Owned(out), target_rate)


def _kaiser(u: np.ndarray) -> np.ndarray:
    """Kaiser window evaluated at normalized positions u in [-1, 1]."""
    inside = np.abs(u) < 1.0
    arg = np.where(inside, 1.0 - u * u, 0.0)
    return np.where(inside, np.i0(_KAISER_BETA * np.sqrt(arg)), 0.0) / _I0_BETA
