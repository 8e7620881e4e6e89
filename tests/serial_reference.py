"""Reference copies of the serial STFT pair and Griffin-Lim loop.

These are the allocating, single-threaded forms that spectral.stft/istft
and vocoder.griffin_lim replaced with in-place, slab-parallel work.  Tests
require the library to give exactly the same arrays (np.array_equal).
The phase-vocoder start finds each bin's peak by filling every peak's
index left and right up to a local minimum, not by counting basins in
blocks of frames as the library does.
"""

import numpy as np

from sraug.audio_io import Waveform
from sraug.errors import DegenerateWindowSum
from sraug.spectral import SpectralConfig, _analysis_window

_MOMENTUM = 0.99
_PEAK_LIMIT = 0.95


def stft_raw(x: np.ndarray, cfg: SpectralConfig) -> np.ndarray:
    pad = cfg.n_fft // 2
    padded = np.pad(x, pad, mode="reflect")
    frames = np.lib.stride_tricks.sliding_window_view(padded, cfg.n_fft)[:: cfg.hop_size]
    return np.fft.rfft(frames * _analysis_window(cfg), cfg.n_fft, axis=1)


def _overlap_add(frames: np.ndarray, hop: int) -> np.ndarray:
    n_frames, frame_len = frames.shape
    n_chunks = -(-frame_len // hop)
    padded_len = n_chunks * hop
    if padded_len != frame_len:
        frames = np.pad(frames, ((0, 0), (0, padded_len - frame_len)))
    chunks = frames.reshape(n_frames, n_chunks, hop)
    acc = np.zeros((n_frames + n_chunks - 1, hop))
    for j in range(n_chunks):
        acc[j : j + n_frames] += chunks[:, j, :]
    return acc.reshape(-1)[: (n_frames - 1) * hop + frame_len]


def istft_raw(values: np.ndarray, cfg: SpectralConfig) -> np.ndarray:
    n_frames = values.shape[0]
    pad = cfg.n_fft // 2
    out_len = (n_frames - 1) * cfg.hop_size
    if out_len <= 0:
        return np.zeros(0)
    frames = np.fft.irfft(values, cfg.n_fft, axis=1) * _analysis_window(cfg)
    acc = _overlap_add(frames, cfg.hop_size)
    win_sq = _analysis_window(cfg) ** 2
    wsum = _overlap_add(np.broadcast_to(win_sq, (n_frames, cfg.n_fft)), cfg.hop_size)
    region = slice(pad, pad + out_len)
    denom = wsum[region]
    if denom.min() < 1e-9:
        raise DegenerateWindowSum("window sum fell below 1e-9")
    return acc[region] / denom


def start_angles(mags: np.ndarray, cfg: SpectralConfig) -> np.ndarray:
    logmag = np.log(np.maximum(mags, 1e-16))
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
    turns = np.take_along_axis(turns, source, axis=1)
    angles = np.empty_like(turns)
    angles[0] = (-1.0) ** bins
    for t in range(1, n_frames):
        angles[t] = angles[t - 1] * turns[t - 1]
    return angles


def griffin_lim(mags: np.ndarray, cfg: SpectralConfig, n_iters: int) -> Waveform:
    if mags.shape[0] < 2:
        return Waveform(np.zeros(0), cfg.sample_rate)
    angles = start_angles(mags, cfg)
    previous = np.zeros_like(mags, dtype=np.complex128)
    blend = _MOMENTUM / (1.0 + _MOMENTUM)
    for _ in range(n_iters):
        rebuilt = stft_raw(istft_raw(mags * angles, cfg), cfg)
        accelerated = rebuilt - blend * previous
        angles = accelerated / np.maximum(np.abs(accelerated), 1e-16)
        previous = rebuilt
    out = istft_raw(mags * angles, cfg)
    peak = np.max(np.abs(out)) if out.size else 0.0
    if peak > _PEAK_LIMIT:
        out *= _PEAK_LIMIT / peak
    return Waveform(out, cfg.sample_rate)
