"""YIN fundamental-frequency extraction and pitch-contour correlation.

The F0-PCC metric compares two pitch tracks frame by frame: both
waveforms are analyzed with YIN, the tracks are truncated to the shorter
one, frames voiced in both are kept, and the Pearson correlation of the
surviving values is returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .audio_io import Waveform, _frozen_array, _integer, _Owned, write_atomic
from .errors import ConfigMismatch, DegenerateVariance, InputTooShort, InsufficientVoicedOverlap

# A sequence whose total variation is this small (relative to its mean
# magnitude) carries no usable contour and is treated as constant.
_CONSTANT_REL_TOL = 1e-4

_MIN_VOICED_OVERLAP = 10

# Frames per block of YIN: a frame's arrays in _cmndf (two 2,240-point
# spectra at 16 kHz, the correlation and the cumulative sums) take about
# 80 kB, so a block peaks at about 20 MB whatever the input's length
# (27 MB at 48 kHz, whose lag arrays are three times as wide).
_YIN_BLOCK = 256

# A frame whose d(tau) is at most this share of its window's energy at every lag
# is constant to round-off (DC-offset silence): constant frames read <= 1.4e-13,
# a tone 120 dB below its DC offset >= 1.05e-12 (at 1,201-63,950 Hz).
_ROUND_OFF = 4e-13


@dataclass(frozen=True)
class PitchConfig:
    """The one YIN analysis setup; its values are class constants."""

    f0_min: ClassVar[float] = 50.0
    f0_max: ClassVar[float] = 600.0
    frame_size: ClassVar[int] = 1280
    hop_size: ClassVar[int] = 320
    yin_threshold: ClassVar[float] = 0.15


@dataclass(frozen=True)
class F0Track:
    """F0 in Hz every PitchConfig.hop_size samples; exactly 0.0 marks an unvoiced frame."""

    f0: np.ndarray
    sample_rate: int

    def __post_init__(self):
        object.__setattr__(self, "f0", _frozen_array(self.f0, np.float64, (None,), "f0", lower=0.0))
        object.__setattr__(self, "sample_rate", _integer(self.sample_rate, "sample_rate", 1))

    def __len__(self) -> int:
        return self.f0.size

    @property
    def voiced(self) -> np.ndarray:
        """Boolean mask of voiced frames."""
        return self.f0 > 0.0

    def times(self) -> np.ndarray:
        """Start time of each frame in seconds."""
        return np.arange(self.f0.size) * (PitchConfig.hop_size / self.sample_rate)


def yin_f0(w: Waveform, cfg: PitchConfig = PitchConfig()) -> F0Track:
    """Estimate per-frame F0 with the YIN difference-function method.

    Each frame's cumulative-mean-normalized difference function is
    scanned over the lag range implied by [f0_min, f0_max]; the first dip
    below yin_threshold (walked downhill to its local minimum, then
    refined by parabolic interpolation) gives the period.  Frames with no
    dip below the threshold, constant ones among them, are reported as 0.0
    (unvoiced).  Frames are analyzed in blocks of 256, so memory beyond
    the input and the track does not grow with the input's length.  Each
    block is scaled exactly, by the power of two that puts its peak in
    [0.5, 1) (a silent block by 1), so its squares stay in float range at
    any level.  ``cfg`` is the one fixed PitchConfig; a rate outside
    1,201-63,950 Hz is a ValueError.
    """
    sr = w.sample_rate
    if not cfg.f0_max < sr / 2:
        raise ValueError(f"f0_max {cfg.f0_max} must be below Nyquist ({sr / 2})")
    x = w.samples
    if x.size < cfg.frame_size:
        raise InputTooShort(
            f"need at least {cfg.frame_size} samples, got {x.size}"
        )
    tau_min = max(2, int(math.floor(sr / cfg.f0_max)))
    if sr / cfg.f0_min > cfg.frame_size - 1:
        raise ValueError("frame_size too small for f0_min at this sample rate")
    tau_max = math.ceil(sr / cfg.f0_min)

    frames = np.lib.stride_tricks.sliding_window_view(x, cfg.frame_size)[
        :: cfg.hop_size
    ]
    lags = np.arange(tau_min, tau_max + 1)
    f0 = np.zeros(frames.shape[0])
    for lo in range(0, f0.size, _YIN_BLOCK):
        block = frames[lo : lo + _YIN_BLOCK]
        cmndf = _cmndf(np.ldexp(block, -math.frexp(max(block.max(), -block.min()))[1]), tau_max)
        scan = cmndf[:, tau_min:]
        dips = scan < cfg.yin_threshold
        voiced = dips.any(axis=1)
        first_dip = lags[np.argmax(dips, axis=1)]
        # Downhill from the dip: the first lag not above the next one, else tau_max.
        stop = np.ones_like(dips)
        stop[:, :-1] = ~(scan[:, 1:] < scan[:, :-1])
        stop &= lags >= first_dip[:, None]
        tau = lags[np.argmax(stop, axis=1)]
        # Parabolic refinement at an inner minimum of positive curvature.
        near = np.minimum(tau[:, None] + np.arange(-1, 2), tau_max)
        left, mid, right = np.take_along_axis(cmndf, near, axis=1).T
        denom = left - 2.0 * mid + right
        inner = (tau < tau_max) & (denom > 0.0)
        delta = np.divide(0.5 * (left - right), denom, out=np.zeros_like(denom), where=inner)
        period = tau + np.clip(delta, -0.5, 0.5)
        f0[lo : lo + len(cmndf)][voiced] = np.clip(sr / period[voiced], cfg.f0_min, cfg.f0_max)
    return F0Track(_Owned(f0), sr)


def _cmndf(frames: np.ndarray, tau_max: int) -> np.ndarray:
    """Cumulative-mean-normalized difference function, lags 0..tau_max.

    The raw difference d(tau) = sum_j (x_j - x_{j+tau})^2 uses a fixed
    integration window of frame_size - tau_max samples so every lag sees
    the same amount of signal; the correlation term is computed with one
    batched FFT.  Each row depends on its own frame alone.
    """
    n_frames, frame_size = frames.shape
    window = frame_size - tau_max  # integration length, same for all lags

    # Cross-correlation c[t, tau] = sum_{j<window} x[t, j] * x[t, j+tau].
    n = frame_size + window
    spec = np.fft.rfft(frames[:, :window], n, axis=1)
    np.conjugate(spec, out=spec)
    # conj(head) times full, in that order: a complex product rounds its
    # imaginary part differently with the operands swapped.
    np.multiply(spec, np.fft.rfft(frames, n, axis=1), out=spec)
    corr = np.fft.irfft(spec, n, axis=1)[:, : tau_max + 1]

    # sq[:, k] = sum of x_j^2 for j < k.
    sq = np.zeros((n_frames, frame_size + 1))
    np.cumsum(frames**2, axis=1, out=sq[:, 1:])
    head_energy = sq[:, window : window + 1]
    tail_energy = sq[:, window : window + tau_max + 1] - sq[:, : tau_max + 1]

    diff = head_energy + tail_energy - 2.0 * corr
    np.maximum(diff, 0.0, out=diff)  # clip FFT round-off below zero
    diff[diff[:, 1:].max(axis=1) <= _ROUND_OFF * head_energy[:, 0]] = 0.0

    out = np.ones_like(diff)
    running = np.cumsum(diff[:, 1:], axis=1)
    taus = np.arange(1, tau_max + 1, dtype=np.float64)
    with np.errstate(invalid="ignore", divide="ignore"):
        normalized = diff[:, 1:] * taus / running
    # Frames with zero running sum (silent or constant) have no dips: leave them at 1.
    out[:, 1:] = np.where(running > 0.0, normalized, 1.0)
    return out


def pearson(x, y) -> float:
    """Pearson correlation coefficient of two equal-length sequences.

    Sequences with (relatively) zero total variation cannot be
    correlated and raise DegenerateVariance.
    """
    x = _frozen_array(x, np.float64, (None,), "x")
    y = _frozen_array(y, np.float64, (None,), "y")
    if x.size != y.size:
        raise ValueError("x and y must be the same length")
    if x.size < 2:
        raise ValueError("need at least 2 points")
    for name, v in (("x", x), ("y", y)):
        if np.ptp(v) <= _CONSTANT_REL_TOL * max(1.0, abs(float(np.mean(v)))):
            raise DegenerateVariance(f"{name} is constant (or nearly so)")
    xc = x - x.mean()
    yc = y - y.mean()
    return float(np.dot(xc, yc) / math.sqrt(np.dot(xc, xc) * np.dot(yc, yc)))


def f0_pcc(
    source: Waveform, converted: Waveform, cfg: PitchConfig = PitchConfig()
) -> float:
    """F0 Pearson correlation between two utterances.

    Both waveforms get YIN tracks with ``cfg`` (the one fixed PitchConfig),
    truncated to the shorter; only frames voiced in both contribute.
    Fewer than 10 co-voiced frames raise InsufficientVoicedOverlap, and
    waveforms at two sample rates, whose frames would span different
    times, ConfigMismatch.
    """
    if source.sample_rate != converted.sample_rate:
        raise ConfigMismatch(
            f"source at {source.sample_rate} Hz vs converted at {converted.sample_rate} Hz"
        )
    track_a = yin_f0(source, cfg)
    track_b = yin_f0(converted, cfg)
    n = min(len(track_a), len(track_b))
    a = track_a.f0[:n]
    b = track_b.f0[:n]
    both = (a > 0.0) & (b > 0.0)
    if int(both.sum()) < _MIN_VOICED_OVERLAP:
        raise InsufficientVoicedOverlap(
            f"only {int(both.sum())} frames voiced in both tracks "
            f"(need {_MIN_VOICED_OVERLAP})"
        )
    return pearson(a[both], b[both])


def write_f0_csv(path, track: F0Track) -> None:
    """Export a pitch track as CSV: frame,time_sec,f0_hz (6 decimals), atomically."""
    times = track.times()
    lines = ["frame,time_sec,f0_hz"]
    for i, (t, f) in enumerate(zip(times, track.f0)):
        lines.append(f"{i},{t:.6f},{f:.6f}")
    write_atomic(path, [("\n".join(lines) + "\n").encode("ascii")])
