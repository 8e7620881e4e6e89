"""Output-quality scores, computed outside every timed region.

Each output is compared with its source's 16 kHz reference rendering
(the generator's own signal for resampled files, the file itself at
16 kHz), so a resampler that damages audio shows up here too.
Items longer than ``WINDOW_S`` are cut into equal windows of at most
that length and every window counts once in the medians; the long
files of ``horizontal_long`` would otherwise give only two values.
"""

from __future__ import annotations

import math

import numpy as np

from sraug.audio_io import Waveform
from sraug.errors import DegenerateVariance, InsufficientVoicedOverlap
from sraug.pitch_eval import PitchConfig, f0_pcc, pearson, yin_f0
from sraug.spectral import MelSpectrogram, mel_spectrogram
from sraug.sr_ops import VERTICAL, RatioRange, ResizeSpec, horizontal_sr, sample_ratio, vertical_sr
from sraug.vc_losses import recon_l1

WINDOW_S = 6.0
# A window whose output has no measurable F0 counts as an octave off.
UNVOICED_CENTS = 1200.0
# Smaller F0 errors count as this much: about one pitch JND, and below
# it a difference of two YIN medians is noise rather than a shift.
F0_RESOLUTION_CENTS = 5.0
_MIN_VOICED = 10


def target_mel(source_mel: MelSpectrogram, ratio: float, seed: int, axis: str,
               pad_noise_std: float, ratio_range: RatioRange) -> MelSpectrogram:
    """The resized mel the program was asked to render, rebuilt from its seed.

    Replays the pipeline's draw order: the item RNG first samples the
    ratio (checked against the manifest by run.py), then, for vertical
    resizes only, fills the padding rows.
    """
    rng = np.random.default_rng(seed)
    sample_ratio(ratio_range, rng)
    spec = ResizeSpec(ratio=ratio, axis=axis, pad_noise_std=pad_noise_std, seed=seed)
    if axis == VERTICAL:
        return vertical_sr(source_mel, spec, rng)
    return horizontal_sr(source_mel, spec)


def _windows(n: int, n_windows: int) -> list[slice]:
    edges = np.linspace(0, n, n_windows + 1).round().astype(int)
    return [slice(a, b) for a, b in zip(edges[:-1], edges[1:])]


def _aligned(src_f0: np.ndarray, out_f0: np.ndarray, axis: str):
    """Pair the frames of two F0 tracks: by index for vertical outputs
    (same timing; the longer track is cut), by relative position for
    horizontal ones (the output is time-scaled)."""
    if axis == VERTICAL:
        n = min(src_f0.size, out_f0.size)
        return src_f0[:n], out_f0[:n]
    idx = np.round(np.linspace(0, src_f0.size - 1, out_f0.size)).astype(int)
    return src_f0[idx], out_f0


def score(source: Waveform, output: Waveform, target: MelSpectrogram, axis: str,
          ratio: float, pcfg: PitchConfig = PitchConfig()) -> dict[str, list[float]]:
    """Per-window mel L1, F0 shift error (cents) and F0 correlation.

    The achieved F0 shift is the median over frames voiced in both
    tracks of 1200*log2(out/src).  The ratio of the two tracks' own
    medians, the plain definition, also moves with glides that only one
    track has voiced, and was half again as unsteady between seeds.
    """
    floor = math.log(target.config.log_floor)
    out_mel = mel_spectrogram(output, target.config).logmels
    if out_mel.shape != target.logmels.shape:
        raise ValueError(f"output mel {out_mel.shape} vs target {target.logmels.shape}")
    offset = float(np.mean(out_mel - target.logmels))  # the 0.95 limiter's gain
    aligned = MelSpectrogram(np.maximum(out_mel - offset, floor), target.config)

    n_windows = max(1, math.ceil(source.duration / WINDOW_S - 1e-9))
    src_f0, out_f0 = _aligned(yin_f0(source, pcfg).f0, yin_f0(output, pcfg).f0, axis)
    expected = 1200.0 * math.log2(ratio) if axis == VERTICAL else 0.0
    scores = {"mel_l1": [], "f0_shift_err_cents": [], "f0_pcc": []}
    for frames in _windows(target.n_frames, n_windows):
        scores["mel_l1"].append(
            recon_l1(MelSpectrogram(target.logmels[frames], target.config),
                     MelSpectrogram(aligned.logmels[frames], target.config))
        )
    for win in _windows(src_f0.size, n_windows):
        a, b = src_f0[win], out_f0[win]
        if np.count_nonzero(a) < _MIN_VOICED:
            continue  # nothing to compare against: a property of the input
        both = (a > 0.0) & (b > 0.0)
        if np.count_nonzero(both) < _MIN_VOICED:
            scores["f0_shift_err_cents"].append(UNVOICED_CENTS)
            scores["f0_pcc"].append(0.0)
            continue
        shift = float(np.median(1200.0 * np.log2(b[both] / a[both])))
        scores["f0_shift_err_cents"].append(max(abs(shift - expected), F0_RESOLUTION_CENTS))
        if axis == VERTICAL and n_windows == 1:
            pcc = f0_pcc  # the library metric, on the whole item
            args = (source, output, pcfg)
        else:
            pcc = pearson
            args = (a[both], b[both])
        try:
            scores["f0_pcc"].append(pcc(*args))
        except (InsufficientVoicedOverlap, DegenerateVariance):
            scores["f0_pcc"].append(0.0)
    return scores


def spectral_convergence(target_mags: np.ndarray, output_mags: np.ndarray) -> float:
    """||S - a|X||| / ||S|| with the least-squares gain a (removes the limiter)."""
    gain = float(np.vdot(target_mags, output_mags) / max(np.vdot(output_mags, output_mags), 1e-30))
    return float(np.linalg.norm(target_mags - gain * output_mags) / np.linalg.norm(target_mags))
