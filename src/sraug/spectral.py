"""STFT analysis/synthesis, mel filterbank, log-mel extraction and inversion.

Conventions used throughout:

* matrices are time-major: shape [n_frames, n_bins];
* analysis is center-aligned: the signal is reflect-padded by n_fft/2 on
  each side, so frame k is centered on sample k*hop of the original;
* log-mels are the natural log of magnitude-domain mel energies, floored
  at ``log_floor`` before the log.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .audio_io import Waveform, _frozen_array, _integer, read_bytes, write_atomic
from .errors import ConfigMismatch, DegenerateWindowSum, MalformedContainer, UnsupportedFormat

_MELF_MAGIC = b"MELF"
_MELF_VERSION = 1
_MELF_HEADER = struct.Struct("<4sIIIII")

# Tolerance when checking log-mel values against the configured floor;
# covers float32 round-trips through the MELF container.
_FLOOR_SLACK = 1e-4

_NNLS_ITERS = 50
_NNLS_EPS = 1e-18


@dataclass(frozen=True)
class SpectralConfig:
    """Analysis parameters shared by every spectral value."""

    n_fft: int = 1280
    win_size: int = 1280
    hop_size: int = 320
    n_mels: int = 80
    sample_rate: int = 16000
    fmin: float = 0.0
    fmax: float = 8000.0
    log_floor: float = 1e-5

    def __post_init__(self):
        for name in ("n_fft", "win_size", "hop_size", "n_mels", "sample_rate"):
            if _integer(getattr(self, name), name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.win_size > self.n_fft:
            raise ValueError("win_size must not exceed n_fft")
        if self.hop_size > self.win_size:
            raise ValueError("hop_size must not exceed win_size")
        if not 0 <= self.fmin < self.fmax <= self.sample_rate / 2:
            raise ValueError("need 0 <= fmin < fmax <= sample_rate/2")
        if self.log_floor <= 0:
            raise ValueError("log_floor must be positive")

    @property
    def n_bins(self) -> int:
        """Number of one-sided FFT bins."""
        return self.n_fft // 2 + 1


@dataclass(frozen=True)
class ComplexSpectrogram:
    """Complex STFT frames, [n_frames, n_fft/2+1]."""

    values: np.ndarray
    config: SpectralConfig

    def __post_init__(self):
        values = _frozen_frames(self.values, np.complex128, self.config.n_bins, "values")
        object.__setattr__(self, "values", values)

    @property
    def n_frames(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class LinearSpectrogram:
    """Non-negative magnitude frames, [n_frames, n_fft/2+1]."""

    mags: np.ndarray
    config: SpectralConfig

    def __post_init__(self):
        mags = _frozen_frames(self.mags, np.float64, self.config.n_bins, "mags", lower=0.0)
        object.__setattr__(self, "mags", mags)

    @property
    def n_frames(self) -> int:
        return self.mags.shape[0]


@dataclass(frozen=True)
class MelSpectrogram:
    """Log-mel frames, [n_frames, n_mels], floored at ln(log_floor)."""

    logmels: np.ndarray
    config: SpectralConfig

    def __post_init__(self):
        floor = math.log(self.config.log_floor) - _FLOOR_SLACK
        n_mels = self.config.n_mels
        logmels = _frozen_frames(self.logmels, np.float64, n_mels, "logmels", floor)
        object.__setattr__(self, "logmels", logmels)

    @property
    def n_frames(self) -> int:
        return self.logmels.shape[0]


def _frozen_frames(values, dtype, n_bins: int, name: str, lower=None) -> np.ndarray:
    """The _frozen_array of [n_frames, n_bins] frames."""
    values = _frozen_array(values, dtype, 2, name, lower)
    if values.shape[1] != n_bins:
        raise ValueError(f"expected {n_bins} bins per frame, got {values.shape[1]}")
    return values


# ---------------------------------------------------------------------------
# windows and framing
#
# Analysis and synthesis work on a frame buffer of shape [n_frames, n_fft];
# overlap-add sums it in hop-wide chunks, the last one narrower when hop
# does not divide n_fft.  stft/istft and Griffin-Lim share these helpers;
# Griffin-Lim passes buffers it reuses across iterations, and rows may be
# split into slabs, since every helper but the overlap-add treats each
# frame on its own.


@lru_cache(maxsize=32)
def _analysis_window(cfg: SpectralConfig) -> np.ndarray:
    """Periodic Hann of win_size, zero-padded (centered) out to n_fft."""
    n = np.arange(cfg.win_size)
    hann = 0.5 - 0.5 * np.cos(2.0 * np.pi * n / cfg.win_size)
    if cfg.win_size < cfg.n_fft:
        lpad = (cfg.n_fft - cfg.win_size) // 2
        out = np.zeros(cfg.n_fft)
        out[lpad : lpad + cfg.win_size] = hann
        hann = out
    hann.flags.writeable = False
    return hann


def _frames(signal: np.ndarray, cfg: SpectralConfig) -> np.ndarray:
    """Read-only view of the hop-spaced n_fft-sample frames of ``signal``, center-padded."""
    padded = np.pad(signal, cfg.n_fft // 2, mode="reflect")
    return np.lib.stride_tricks.sliding_window_view(padded, cfg.n_fft)[:: cfg.hop_size]


def _analyze(
    frames: np.ndarray, cfg: SpectralConfig, scratch: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Windowed frames to spectrum: window ``frames`` into ``scratch``, rfft into ``out``."""
    np.multiply(frames, _analysis_window(cfg), out=scratch)
    return np.fft.rfft(scratch, cfg.n_fft, axis=1, out=out)


def _synthesize(values: np.ndarray, cfg: SpectralConfig, out: np.ndarray) -> np.ndarray:
    """Spectrum to windowed frames: irfft each row into ``out``, window it again."""
    np.fft.irfft(values, cfg.n_fft, axis=1, out=out)
    return np.multiply(out, _analysis_window(cfg), out=out)


def _sum_frames(frames: np.ndarray, hop: int) -> np.ndarray:
    """Overlap-add [n_frames, n_fft] frames, chunk by chunk, one hop per row."""
    n_frames, n_fft = frames.shape
    acc = np.zeros((n_frames + -(-n_fft // hop) - 1, hop))
    for j, start in enumerate(range(0, n_fft, hop)):
        chunk = frames[:, start : start + hop]
        acc[j : j + n_frames, : chunk.shape[1]] += chunk
    return acc.reshape(-1)


def _output_region(n_frames: int, cfg: SpectralConfig) -> slice:
    """Overlap-added samples that survive trimming the center padding."""
    pad = cfg.n_fft // 2
    return slice(pad, pad + (n_frames - 1) * cfg.hop_size)


@lru_cache(maxsize=4)
def _window_sum(cfg: SpectralConfig, n_frames: int) -> np.ndarray:
    """Overlap-added squared window over the trimmed output region.

    Raises DegenerateWindowSum where it falls below 1e-9, since the
    normalization would then divide by (nearly) zero.
    """
    frames = np.broadcast_to(_analysis_window(cfg) ** 2, (n_frames, cfg.n_fft))
    denom = _sum_frames(frames, cfg.hop_size)
    denom = denom[_output_region(n_frames, cfg)]
    if denom.min() < 1e-9:
        raise DegenerateWindowSum(
            f"window sum fell below 1e-9 (min {denom.min():.3e}); "
            "this hop/window combination cannot be inverted"
        )
    denom.flags.writeable = False
    return denom


def _overlap_add(frames: np.ndarray, cfg: SpectralConfig) -> np.ndarray:
    """Overlap-add plus normalization: the trimmed signal of a frame buffer.

    Sums the windowed frames and divides the (n_frames - 1) * hop_size
    samples left after trimming by the window sum.
    """
    n_frames = frames.shape[0]
    denom = _window_sum(cfg, n_frames)
    summed = _sum_frames(frames, cfg.hop_size)
    return summed[_output_region(n_frames, cfg)] / denom


# ---------------------------------------------------------------------------
# public operations


def stft(w: Waveform, cfg: SpectralConfig) -> ComplexSpectrogram:
    """Short-time Fourier transform with center alignment.

    The waveform is reflect-padded by n_fft/2 on each side and sliced into
    periodic-Hann-windowed frames every hop_size samples, giving
    floor(len/hop) + 1 frames.
    """
    if w.sample_rate != cfg.sample_rate:
        raise ConfigMismatch(
            f"waveform at {w.sample_rate} Hz vs config {cfg.sample_rate} Hz"
        )
    if len(w) < 1:
        raise ValueError("cannot analyze an empty waveform")
    frames = _frames(w.samples, cfg)
    values = np.empty((frames.shape[0], cfg.n_bins), dtype=np.complex128)
    return ComplexSpectrogram(_analyze(frames, cfg, np.empty(frames.shape), values), cfg)


def istft(s: ComplexSpectrogram) -> Waveform:
    """Invert an STFT by normalized overlap-add.

    Frames are windowed again on synthesis and the result divided by the
    summed squared window, then the n_fft/2 center padding is trimmed:
    output length is (n_frames - 1) * hop_size.
    """
    cfg = s.config
    if s.n_frames < 2:
        return Waveform(np.zeros(0), cfg.sample_rate)
    frames = _synthesize(s.values, cfg, np.empty((s.n_frames, cfg.n_fft)))
    return Waveform(_overlap_add(frames, cfg), cfg.sample_rate)


def hz_to_mel(f):
    """Map frequency in Hz to mels, 2595 * log10(1 + f/700)."""
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    """Inverse of hz_to_mel."""
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@lru_cache(maxsize=32)
def mel_filterbank(cfg: SpectralConfig) -> np.ndarray:
    """Triangular mel filters as a cached, read-only [n_mels, n_fft/2+1] matrix.

    Centers lie strictly between fmin and fmax on the
    2595*log10(1 + f/700) scale; each filter is scaled by 2/bandwidth so
    filters carry comparable area regardless of width.
    """
    fftfreqs = np.arange(cfg.n_bins) * (cfg.sample_rate / cfg.n_fft)
    mel_pts = np.linspace(hz_to_mel(cfg.fmin), hz_to_mel(cfg.fmax), cfg.n_mels + 2)
    hz_pts = mel_to_hz(mel_pts)

    fdiff = np.diff(hz_pts)
    ramps = hz_pts[:, None] - fftfreqs[None, :]
    lower = -ramps[:-2] / fdiff[:-1][:, None]
    upper = ramps[2:] / fdiff[1:][:, None]
    weights = np.maximum(0.0, np.minimum(lower, upper))
    # Area normalization: scale each triangle by 2 / bandwidth in Hz.
    weights *= (2.0 / (hz_pts[2:] - hz_pts[:-2]))[:, None]
    weights.flags.writeable = False
    return weights


def mel_spectrogram(w: Waveform, cfg: SpectralConfig) -> MelSpectrogram:
    """Log-mel analysis: ln(max(filterbank @ |stft|, log_floor)).

    The filterbank is applied to magnitude (not power) spectra.
    """
    spec = stft(w, cfg)
    mags = np.abs(spec.values)
    mel = mags @ mel_filterbank(cfg).T
    return MelSpectrogram(np.log(np.maximum(mel, cfg.log_floor)), cfg)


def mel_to_linear(m: MelSpectrogram, weights: np.ndarray) -> LinearSpectrogram:
    """Approximately invert a log-mel matrix to linear magnitudes.

    Solves, per frame, the non-negative least-squares problem
    min ||W x - exp(logmels)||^2 over x >= 0 with 50 multiplicative
    updates from x0 = W^T m, where W is the mel_filterbank ``weights``.
    """
    if m.config.n_mels != weights.shape[0]:
        raise ConfigMismatch(
            f"mel has {m.config.n_mels} bands but filterbank has {weights.shape[0]}"
        )
    target = np.exp(m.logmels)  # [T, M]
    numer = target @ weights  # W^T m for every frame, constant
    x = numer.copy()
    for _ in range(_NNLS_ITERS):
        denom = (x @ weights.T) @ weights
        x *= numer / (denom + _NNLS_EPS)
    return LinearSpectrogram(x, m.config)


# ---------------------------------------------------------------------------
# MELF container


def write_melf(path, m: MelSpectrogram) -> None:
    """Serialize a MelSpectrogram to the MELF binary container.

    Layout: magic "MELF", then u32 version=1, n_frames, n_bins,
    sample_rate, hop_size (little-endian), then the frames as row-major
    (time-major) IEEE-754 float32.  Byte-for-byte reproducible; written
    atomically.
    """
    header = _MELF_HEADER.pack(
        _MELF_MAGIC,
        _MELF_VERSION,
        m.n_frames,
        m.config.n_mels,
        m.config.sample_rate,
        m.config.hop_size,
    )
    write_atomic(path, [header, m.logmels.astype("<f4").tobytes()])


def read_melf(path, base_config: SpectralConfig | None = None) -> MelSpectrogram:
    """Read a MELF container written by write_melf.

    The container stores band count, sample rate and hop size; remaining
    analysis parameters are taken from ``base_config`` (defaults when not
    given).  A header or payload that these parameters or MelSpectrogram
    reject raises MalformedContainer.
    """
    blob = read_bytes(path)
    if len(blob) < _MELF_HEADER.size:
        raise MalformedContainer(f"{path}: too short for a MELF header")
    magic, version, n_frames, n_bins, sample_rate, hop_size = _MELF_HEADER.unpack_from(
        blob
    )
    if magic != _MELF_MAGIC:
        raise MalformedContainer(f"{path}: bad magic {magic!r}")
    if version != _MELF_VERSION:
        raise UnsupportedFormat(f"{path}: MELF version {version}")
    expected = n_frames * n_bins * 4
    payload = blob[_MELF_HEADER.size :]
    if len(payload) != expected:
        raise MalformedContainer(
            f"{path}: expected {expected} data bytes, found {len(payload)}"
        )
    values = np.frombuffer(payload, dtype="<f4").reshape(n_frames, n_bins)
    try:
        cfg = replace(
            base_config or SpectralConfig(),
            n_mels=int(n_bins),
            sample_rate=int(sample_rate),
            hop_size=int(hop_size),
        )
        return MelSpectrogram(values, cfg)
    except ValueError as exc:
        raise MalformedContainer(f"{path}: {exc}") from exc
