"""Spectrogram-resize augmentation operators.

A mel-spectrogram is squeezed or stretched along one axis with linear
interpolation and then padded or cropped back.  Vertical resizing moves
spectral content up or down the frequency axis, which raises or lowers
the perceived pitch of the reconstructed audio (ratio > 1 raises it);
horizontal resizing changes the time scale instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .audio_io import _integer, _round_half_up
from .spectral import MelSpectrogram

VERTICAL = "vertical"
HORIZONTAL = "horizontal"

RATIO_GUARD_LO = 0.5
RATIO_GUARD_HI = 2.0


@dataclass(frozen=True)
class ResizeSpec:
    """One resize operation: ratio, axis, and padding-noise parameters.

    pad_noise_std is in log-mel units and only matters for vertical
    ratios below 1, where new top rows are synthesized.  Ratios outside
    [0.5, 2.0] are rejected outright; they produce nothing usable.
    """

    ratio: float
    axis: str = VERTICAL
    pad_noise_std: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if not (
            math.isfinite(self.ratio)
            and RATIO_GUARD_LO <= self.ratio <= RATIO_GUARD_HI
        ):
            raise ValueError(
                f"ratio must be within [{RATIO_GUARD_LO}, {RATIO_GUARD_HI}], "
                f"got {self.ratio}"
            )
        if self.axis not in (VERTICAL, HORIZONTAL):
            raise ValueError(f"axis must be '{VERTICAL}' or '{HORIZONTAL}'")
        if not (math.isfinite(self.pad_noise_std) and self.pad_noise_std >= 0):
            raise ValueError("pad_noise_std must be finite and >= 0")
        if not 0 <= _integer(self.seed, "seed") < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")


@dataclass(frozen=True)
class RatioRange:
    """Closed interval ratios are drawn from."""

    lo: float = 0.85
    hi: float = 1.15

    def __post_init__(self):
        if not RATIO_GUARD_LO <= self.lo <= self.hi <= RATIO_GUARD_HI:
            raise ValueError(
                f"need {RATIO_GUARD_LO} <= lo <= hi <= {RATIO_GUARD_HI}, "
                f"got [{self.lo}, {self.hi}]"
            )


def resize_axis(mat: np.ndarray, new_len: int, axis: str) -> np.ndarray:
    """Linearly resize one axis of a matrix to ``new_len``.

    Align-corners convention: output index j samples input position
    j*(L-1)/(L'-1), so the first and last lines are kept exactly.  A
    single-line output takes input position 0.  axis 'vertical' resizes
    the per-frame bin vectors (second dimension), 'horizontal' the time
    dimension.
    """
    mat = np.asarray(mat, dtype=np.float64)
    if mat.ndim != 2 or mat.size == 0:
        raise ValueError("mat must be a non-empty 2-D matrix")
    if new_len < 1:
        raise ValueError("new_len must be >= 1")
    if axis not in (VERTICAL, HORIZONTAL):
        raise ValueError(f"axis must be '{VERTICAL}' or '{HORIZONTAL}'")
    dim = 1 if axis == VERTICAL else 0
    length = mat.shape[dim]
    if new_len == length:
        return mat.copy()

    if new_len == 1:
        positions = np.zeros(1)
    else:
        # Integer numerator first so the endpoints come out exact.
        positions = np.arange(new_len, dtype=np.int64) * (length - 1) / (new_len - 1)
    lo = np.floor(positions).astype(np.int64)
    lo = np.minimum(lo, length - 1)
    hi = np.minimum(lo + 1, length - 1)
    frac = positions - lo

    lines = np.moveaxis(mat, dim, -1)
    out = lines[..., lo] * (1.0 - frac) + lines[..., hi] * frac
    return np.moveaxis(out, -1, dim)


def vertical_sr(
    m: MelSpectrogram, spec: ResizeSpec, rng: np.random.Generator | None = None
) -> MelSpectrogram:
    """Resize the frequency axis by spec.ratio, then pad or crop back.

    With H input bins and H' = round(H * ratio):

    * ratio < 1: content shrinks into the bottom H' bins and the (H - H')
      rows above are filled, per frame, with that frame's new top-bin
      value plus per-cell Gaussian noise of scale pad_noise_std;
    * ratio > 1: content stretches to H' bins and the top (H' - H) rows
      are cropped away;
    * ratio = 1: bit-exact no-op.

    Output shape always equals input shape.  Padded cells are clamped to
    the configured log floor so the result stays a valid MelSpectrogram.
    Noise is drawn in one row-major block, so a given (rng state, shape)
    always yields the same fill.
    """
    if spec.axis != VERTICAL:
        raise ValueError(f"vertical_sr needs axis='{VERTICAL}', got '{spec.axis}'")
    if rng is None:
        rng = np.random.default_rng(spec.seed)
    h = m.config.n_mels
    h_resized = max(1, _round_half_up(h * spec.ratio))
    resized = resize_axis(m.logmels, h_resized, VERTICAL)
    if h_resized == h:
        out = resized
    elif h_resized < h:
        n_frames = resized.shape[0]
        base = resized[:, -1:]  # highest surviving bin, per frame
        noise = rng.normal(0.0, spec.pad_noise_std, size=(n_frames, h - h_resized))
        pad = np.maximum(base + noise, math.log(m.config.log_floor))
        out = np.concatenate([resized, pad], axis=1)
    else:
        out = resized[:, :h]
    return MelSpectrogram(out, m.config)


def horizontal_sr(m: MelSpectrogram, spec: ResizeSpec) -> MelSpectrogram:
    """Resize the time axis by spec.ratio; the frame count changes.

    No padding or cropping happens here: a longer or shorter signal is
    the point of horizontal resizing.
    """
    if spec.axis != HORIZONTAL:
        raise ValueError(f"horizontal_sr needs axis='{HORIZONTAL}', got '{spec.axis}'")
    n_frames = m.n_frames
    if n_frames < 2:
        raise ValueError("need at least 2 frames to resize the time axis")
    t_resized = max(1, _round_half_up(n_frames * spec.ratio))
    return MelSpectrogram(resize_axis(m.logmels, t_resized, HORIZONTAL), m.config)


def resize(
    m: MelSpectrogram, spec: ResizeSpec, rng: np.random.Generator | None = None
) -> MelSpectrogram:
    """Resize along spec.axis: vertical_sr (padding noise from ``rng``) or horizontal_sr."""
    if spec.axis == VERTICAL:
        return vertical_sr(m, spec, rng)
    return horizontal_sr(m, spec)


def sample_ratio(ratio_range: RatioRange, rng: np.random.Generator) -> float:
    """Draw one resize ratio uniformly from the range."""
    return float(rng.uniform(ratio_range.lo, ratio_range.hi))
