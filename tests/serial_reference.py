"""Reference copies of the serial STFT pair and Griffin-Lim loop.

These are the allocating, single-threaded forms that spectral.stft/istft
and vocoder.griffin_lim replaced with in-place, slab-parallel work.  Tests
require the library to give exactly the same arrays (np.array_equal).
The phase-vocoder start finds each bin's peak by filling every peak's
index left and right up to a local minimum, not by counting basins in
blocks of frames as the library does.

Each function takes the precision of its signal, ``dtype``.  At float64
it is the plain double-precision algorithm, the quality yardstick.  At
float32 it makes the library's casts: the window, the window sum, the
magnitudes and the start's turns are cast to single precision, and the
signal and spectra stay there, until the limiter's scale is applied in
float64 as the output widens.  The start's turns are computed in float64
from the magnitudes in the loop's precision, as in the library.

``yin_f0`` picks each frame's period one frame at a time, walking
downhill from the first dip in a loop, as pitch_eval.yin_f0 did before
it picked every frame of a block with array operations.
"""

import math

import numpy as np

from sraug.audio_io import Waveform
from sraug.pitch_eval import PitchConfig, _cmndf
from sraug.spectral import _WINDOW, SpectralConfig

_MOMENTUM = 0.99
_PEAK_LIMIT = 0.95


def stft_raw(x: np.ndarray, cfg: SpectralConfig, dtype=np.float64) -> np.ndarray:
    pad = cfg.n_fft // 2
    padded = np.pad(x.astype(dtype, copy=False), pad, mode="reflect")
    frames = np.lib.stride_tricks.sliding_window_view(padded, cfg.n_fft)[:: cfg.hop_size]
    return np.fft.rfft(frames * _WINDOW.astype(dtype), cfg.n_fft, axis=1)


def _overlap_add(frames: np.ndarray, hop: int) -> np.ndarray:
    n_frames, frame_len = frames.shape
    n_chunks = -(-frame_len // hop)
    padded_len = n_chunks * hop
    if padded_len != frame_len:
        frames = np.pad(frames, ((0, 0), (0, padded_len - frame_len)))
    chunks = frames.reshape(n_frames, n_chunks, hop)
    acc = np.zeros((n_frames + n_chunks - 1, hop), dtype=frames.dtype)
    for j in range(n_chunks):
        acc[j : j + n_frames] += chunks[:, j, :]
    return acc.reshape(-1)[: (n_frames - 1) * hop + frame_len]


def istft_raw(values: np.ndarray, cfg: SpectralConfig, dtype=np.float64) -> np.ndarray:
    n_frames = values.shape[0]
    pad = cfg.n_fft // 2
    out_len = (n_frames - 1) * cfg.hop_size
    if out_len <= 0:
        return np.zeros(0, dtype=dtype)
    frames = np.fft.irfft(values, cfg.n_fft, axis=1) * _WINDOW.astype(dtype)
    acc = _overlap_add(frames, cfg.hop_size)
    win_sq = _WINDOW**2
    wsum = _overlap_add(np.broadcast_to(win_sq, (n_frames, cfg.n_fft)), cfg.hop_size)
    region = slice(pad, pad + out_len)
    return acc[region] / wsum[region].astype(dtype)


def start_angles(mags: np.ndarray, cfg: SpectralConfig, dtype=np.float64) -> np.ndarray:
    logmag = np.log(np.maximum(mags.astype(np.float64), 1e-16))
    n_frames, n_bins = logmag.shape
    padded = np.pad(logmag, ((0, 0), (1, 1)), constant_values=-np.inf)
    left, right = padded[:, :-2], padded[:, 2:]
    is_peak = (logmag > left) & (logmag >= right)
    is_min = (logmag <= left) & (logmag < right)
    bins = np.arange(n_bins)
    inner = is_peak & (bins > 0) & (bins < n_bins - 1)
    up, down = logmag - left, right - logmag
    freqs = np.zeros_like(logmag)
    np.divide(up + down, up - down, out=freqs, where=inner)
    freqs = (freqs * 0.5 + bins) * (2.0 * np.pi * cfg.hop_size / cfg.n_fft)
    turns = np.cos(freqs) + 1j * np.sin(freqs)
    # A bin follows the last peak at or below it unless a minimum lies
    # between the two; then it follows the next peak above it.
    last_peak = np.maximum.accumulate(np.where(is_peak, bins, -1), axis=1)
    next_peak = np.minimum.accumulate(np.where(is_peak, bins, n_bins)[:, ::-1], axis=1)[:, ::-1]
    last_min = np.maximum.accumulate(np.where(is_min, bins, -1), axis=1)
    source = np.where(last_min < last_peak, last_peak, next_peak)
    turns = np.take_along_axis(turns, source, axis=1).astype(np.result_type(dtype, 1j))
    angles = np.empty_like(turns)
    angles[0] = (-1.0) ** bins
    for t in range(1, n_frames):
        angles[t] = angles[t - 1] * turns[t - 1]
    return angles


def griffin_lim(
    mags: np.ndarray, cfg: SpectralConfig, n_iters: int, dtype=np.float64, domain="signal"
) -> Waveform:
    """Fast Griffin-Lim, its momentum taken in the signal or the spectral ``domain``.

    In the signal domain the accelerated spectrum is STFT(x_i - b * x_i-1),
    as vocoder.griffin_lim forms it: reflect-padding a signal copies its
    samples, so the difference of the padded signals is the padding of
    the difference.  In the spectral domain it is STFT(x_i) - b *
    STFT(x_i-1), the form vocoder.griffin_lim replaced.  The STFT is
    linear, so the two differ only in rounding; both analyze x_0 alone in
    the first iteration, where they give the same bytes.
    """
    if mags.shape[0] < 2:
        return Waveform(np.zeros(0), cfg.sample_rate)
    mags = mags.astype(dtype)
    angles = start_angles(mags, cfg, dtype)
    signal = istft_raw(mags * angles, cfg, dtype)
    older = np.zeros_like(signal)
    previous = 0.0
    blend = _MOMENTUM / (1.0 + _MOMENTUM)
    for _ in range(n_iters):
        if domain == "signal":
            accelerated = stft_raw(signal - blend * older, cfg, dtype)
        else:
            rebuilt = stft_raw(signal, cfg, dtype)
            accelerated = rebuilt - blend * previous
            previous = rebuilt
        # One real scale takes the accelerated value to the magnitudes.
        spectrum = accelerated * (mags / np.maximum(np.abs(accelerated), 1e-16))
        older, signal = signal, istft_raw(spectrum, cfg, dtype)
    peak = float(np.max(np.abs(signal))) if signal.size else 0.0
    scale = _PEAK_LIMIT / peak if peak > _PEAK_LIMIT else 1.0
    return Waveform(np.multiply(signal, scale, dtype=np.float64), cfg.sample_rate)


def yin_f0(w: Waveform, cfg: PitchConfig = PitchConfig()) -> np.ndarray:
    sr = w.sample_rate
    tau_min = max(2, int(math.floor(sr / cfg.f0_max)))
    tau_max = math.ceil(sr / cfg.f0_min)
    frames = np.lib.stride_tricks.sliding_window_view(w.samples, cfg.frame_size)
    cmndf = _cmndf(np.ascontiguousarray(frames[:: cfg.hop_size]), tau_max)
    f0 = np.zeros(len(cmndf))
    for t, row in enumerate(cmndf):
        dips = np.flatnonzero(row[tau_min:] < cfg.yin_threshold)
        if dips.size == 0:
            continue
        tau = tau_min + int(dips[0])
        while tau + 1 <= tau_max and row[tau + 1] < row[tau]:
            tau += 1
        f0[t] = max(min(sr / _refine_lag(row, tau, tau_max), cfg.f0_max), cfg.f0_min)
    return f0


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
