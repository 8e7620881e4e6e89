"""Reference copies of the serial STFT pair and Griffin-Lim loop.

These are the allocating, single-threaded forms that spectral.stft/istft
and vocoder.griffin_lim replaced with in-place, slab-parallel work.  Tests
require the library to give exactly the same arrays (np.array_equal).
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


def griffin_lim(mags: np.ndarray, cfg: SpectralConfig, n_iters: int) -> Waveform:
    if mags.shape[0] < 2:
        return Waveform(np.zeros(0), cfg.sample_rate)
    angles = np.ones_like(mags, dtype=np.complex128)
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
