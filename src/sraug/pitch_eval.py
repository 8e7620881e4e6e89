"""YIN fundamental-frequency extraction and pitch-contour correlation.

The F0-PCC metric compares two pitch tracks frame by frame: both
waveforms are analyzed with YIN, the tracks are truncated to the shorter
one, frames voiced in both are kept, and the Pearson correlation of the
surviving values is returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .audio_io import Waveform, _frozen_array, _integer, write_atomic
from .errors import DegenerateVariance, InputTooShort, InsufficientVoicedOverlap

# A sequence whose total variation is this small (relative to its mean
# magnitude) carries no usable contour and is treated as constant.
_CONSTANT_REL_TOL = 1e-4

_MIN_VOICED_OVERLAP = 10


@dataclass(frozen=True)
class PitchConfig:
    """YIN analysis parameters."""

    f0_min: float = 50.0
    f0_max: float = 600.0
    frame_size: int = 1280
    hop_size: int = 320
    yin_threshold: float = 0.15

    def __post_init__(self):
        if not 0 < self.f0_min < self.f0_max:
            raise ValueError("need 0 < f0_min < f0_max")
        for name in ("frame_size", "hop_size"):
            if _integer(getattr(self, name), name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.hop_size > self.frame_size:
            raise ValueError("hop_size must not exceed frame_size")
        if not 0 < self.yin_threshold < 1:
            raise ValueError("yin_threshold must lie in (0, 1)")


@dataclass(frozen=True)
class F0Track:
    """Per-frame F0 values in Hz; exactly 0.0 marks an unvoiced frame."""

    f0: np.ndarray
    hop_size: int
    sample_rate: int

    def __post_init__(self):
        object.__setattr__(self, "f0", _frozen_array(self.f0, np.float64, 1, "f0", lower=0.0))

    def __len__(self) -> int:
        return self.f0.size

    @property
    def voiced(self) -> np.ndarray:
        """Boolean mask of voiced frames."""
        return self.f0 > 0.0

    def times(self) -> np.ndarray:
        """Start time of each frame in seconds."""
        return np.arange(self.f0.size) * (self.hop_size / self.sample_rate)


def yin_f0(w: Waveform, cfg: PitchConfig = PitchConfig()) -> F0Track:
    """Estimate per-frame F0 with the YIN difference-function method.

    Each frame's cumulative-mean-normalized difference function is
    scanned over the lag range implied by [f0_min, f0_max]; the first dip
    below yin_threshold (walked downhill to its local minimum, then
    refined by parabolic interpolation) gives the period.  Frames with no
    dip below the threshold are reported as 0.0 (unvoiced).
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
    tau_max = int(math.ceil(sr / cfg.f0_min))
    if tau_max >= cfg.frame_size:
        raise ValueError("frame_size too small for f0_min at this sample rate")

    frames = np.lib.stride_tricks.sliding_window_view(x, cfg.frame_size)[
        :: cfg.hop_size
    ]
    cmndf = _cmndf(np.ascontiguousarray(frames), tau_max)

    n_frames = frames.shape[0]
    f0 = np.zeros(n_frames)
    search = cmndf[:, tau_min : tau_max + 1]
    has_dip = (search < cfg.yin_threshold).any(axis=1)
    first_dip = tau_min + np.argmax(search < cfg.yin_threshold, axis=1)
    for t in np.flatnonzero(has_dip):
        tau = int(first_dip[t])
        row = cmndf[t]
        while tau + 1 <= tau_max and row[tau + 1] < row[tau]:
            tau += 1
        f0[t] = sr / _refine_lag(row, tau, tau_max)
    np.clip(f0, 0.0, cfg.f0_max, out=f0)
    f0[has_dip] = np.maximum(f0[has_dip], cfg.f0_min)
    return F0Track(f0, cfg.hop_size, sr)


def _cmndf(frames: np.ndarray, tau_max: int) -> np.ndarray:
    """Cumulative-mean-normalized difference function, lags 0..tau_max.

    The raw difference d(tau) = sum_j (x_j - x_{j+tau})^2 uses a fixed
    integration window of frame_size - tau_max samples so every lag sees
    the same amount of signal; the correlation term is computed with one
    batched FFT.
    """
    n_frames, frame_size = frames.shape
    window = frame_size - tau_max  # integration length, same for all lags

    # Cross-correlation c[t, tau] = sum_{j<window} x[t, j] * x[t, j+tau].
    n = frame_size + window
    spec_full = np.fft.rfft(frames, n, axis=1)
    spec_head = np.fft.rfft(frames[:, :window], n, axis=1)
    corr = np.fft.irfft(spec_full * spec_head.conj(), n, axis=1)[:, : tau_max + 1]

    sq = np.cumsum(frames**2, axis=1)
    head_energy = sq[:, window - 1 : window]  # sum of x_j^2, j < window
    tail_start = np.concatenate(
        [np.zeros((n_frames, 1)), sq[:, :tau_max]], axis=1
    )
    tail_energy = sq[:, window - 1 : window + tau_max] - tail_start

    diff = head_energy + tail_energy - 2.0 * corr
    np.maximum(diff, 0.0, out=diff)  # clip FFT round-off below zero

    out = np.ones_like(diff)
    running = np.cumsum(diff[:, 1:], axis=1)
    taus = np.arange(1, tau_max + 1, dtype=np.float64)
    with np.errstate(invalid="ignore", divide="ignore"):
        normalized = diff[:, 1:] * taus / running
    # Frames with zero running sum (silence) have no dips: leave them at 1.
    out[:, 1:] = np.where(running > 0.0, normalized, 1.0)
    return out


def _refine_lag(row: np.ndarray, tau: int, tau_max: int) -> float:
    """Parabolic interpolation around a local minimum of the CMNDF."""
    if tau <= 1 or tau >= tau_max:
        return float(tau)
    left, mid, right = row[tau - 1], row[tau], row[tau + 1]
    denom = left - 2.0 * mid + right
    if denom <= 0.0:
        return float(tau)
    delta = 0.5 * (left - right) / denom
    return tau + float(np.clip(delta, -0.5, 0.5))


def pearson(x, y) -> float:
    """Pearson correlation coefficient of two equal-length sequences.

    Sequences with (relatively) zero total variation cannot be
    correlated and raise DegenerateVariance.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 1 or y.ndim != 1 or x.size != y.size:
        raise ValueError("x and y must be 1-D and the same length")
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

    Both waveforms get YIN tracks, the tracks are truncated to the
    shorter, and only frames voiced in both contribute.  Fewer than 10
    co-voiced frames raise InsufficientVoicedOverlap.
    """
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
