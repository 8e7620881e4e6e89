"""Training-loss arithmetic for a CVAE/GAN voice-conversion stack.

Pure numpy math with no autodiff: these exist so a trainer (or a test)
can check its own loss plumbing against closed-form values.

ScoreSet / FeatureSet are plain sequences of real matrices: one score
matrix per discriminator sub-scale, one feature matrix per layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .audio_io import _frozen_array
from .errors import DimensionMismatch, NonFinite
from .spectral import MelSpectrogram

ScoreSet = Sequence[np.ndarray]
FeatureSet = Sequence[np.ndarray]

_FM_WEIGHT = 2.0


@dataclass(frozen=True)
class DiagGaussian:
    """Diagonal Gaussian given as a mean vector and a log-std vector."""

    mean: np.ndarray
    log_std: np.ndarray

    def __post_init__(self):
        # A scalar is a one-entry vector.
        mean = _frozen_array(np.atleast_1d(self.mean), np.float64, 1, "mean")
        log_std = _frozen_array(np.atleast_1d(self.log_std), np.float64, 1, "log_std")
        if mean.size != log_std.size:
            raise DimensionMismatch(
                f"mean has {mean.size} entries, log_std has {log_std.size}"
            )
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "log_std", log_std)

    def __len__(self) -> int:
        return self.mean.size


def kl_diag_gaussian(q: DiagGaussian, p: DiagGaussian) -> float:
    """KL(q || p) between two diagonal Gaussians, summed over dimensions.

    Sum_i [ ln s_p,i - ln s_q,i + (s_q,i^2 + (m_q,i - m_p,i)^2)
            / (2 s_p,i^2) - 1/2 ].

    NOTE: when the prior sits behind a volume-preserving flow (unit
    Jacobian determinant), the flow adds nothing to the divergence, but
    the parameters passed here must already be the *pushed-forward* ones.
    Feeding pre-flow parameters silently computes a different quantity.
    """
    if len(q) != len(p):
        raise DimensionMismatch(f"q has {len(q)} dims, p has {len(p)}")
    var_q = np.exp(2.0 * q.log_std)
    inv_var_p = np.exp(-2.0 * p.log_std)
    terms = (
        p.log_std
        - q.log_std
        + 0.5 * (var_q + (q.mean - p.mean) ** 2) * inv_var_p
        - 0.5
    )
    return float(terms.sum())


def recon_l1(target_mel: MelSpectrogram, pred_mel: MelSpectrogram) -> float:
    """Mean absolute difference between two equal-shape mel matrices."""
    a = target_mel.logmels
    b = pred_mel.logmels
    if a.shape != b.shape:
        raise DimensionMismatch(f"mel shapes differ: {a.shape} vs {b.shape}")
    return float(np.mean(np.abs(a - b)))


def _check_pairs(real, fake, unit: str) -> list[tuple[np.ndarray, np.ndarray]]:
    """Pair up two sets of arrays, one ``unit`` each.

    Each set must hold at least one array, every array numeric,
    non-empty and finite, and the two sets must be of one length.
    """
    sets = []
    for name, arrays in (("real", real), ("fake", fake)):
        if len(arrays) == 0:
            raise ValueError(f"{name} must contain at least one {unit}")
        try:
            arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{name} entries must be numeric: {exc}") from exc
        if any(a.size == 0 or not np.isfinite(a).all() for a in arrays):
            raise ValueError(f"{name} entries must be non-empty and finite")
        sets.append(arrays)
    real_arrays, fake_arrays = sets
    if len(real_arrays) != len(fake_arrays):
        raise DimensionMismatch(f"{len(real_arrays)} real {unit}s vs {len(fake_arrays)} fake")
    return list(zip(real_arrays, fake_arrays))


def lsgan_losses(real: ScoreSet, fake: ScoreSet) -> tuple[float, float]:
    """Least-squares GAN objectives over multi-scale score sets.

    Returns (discriminator loss, generator loss):
    D: sum over scales of mean((real - 1)^2) + mean(fake^2);
    G: sum over scales of mean((fake - 1)^2).
    """
    loss_d = 0.0
    loss_g = 0.0
    for r, f in _check_pairs(real, fake, "sub-scale"):
        loss_d += float(np.mean((r - 1.0) ** 2) + np.mean(f**2))
        loss_g += float(np.mean((f - 1.0) ** 2))
    return loss_d, loss_g


def feature_matching(real: FeatureSet, fake: FeatureSet) -> float:
    """Mean L1 gap between paired discriminator features, weighted by 2.

    Averages mean|real_l - fake_l| over layers; the factor 2 follows the
    usual vocoder-GAN convention for this term.
    """
    pairs = _check_pairs(real, fake, "layer")
    total = 0.0
    for r, f in pairs:
        if r.shape != f.shape:
            raise DimensionMismatch(f"layer shapes differ: {r.shape} vs {f.shape}")
        total += float(np.mean(np.abs(r - f)))
    return _FM_WEIGHT * total / len(pairs)


def generator_total(
    l_rec: float,
    l_kl: float,
    l_adv_g: float,
    l_fm: float,
    *,
    rec_weight: float = 1.0,
    kl_weight: float = 1.0,
    adv_weight: float = 1.0,
    fm_weight: float = 1.0,
) -> float:
    """Total generator objective: weighted sum of the four terms.

    All weights default to 1 so the total is the plain sum of the terms.
    Conventional vocoder-GAN recipes weight the reconstruction term by 45
    (pass rec_weight=45 to opt in).
    """
    values = (l_rec, l_kl, l_adv_g, l_fm)
    weights = (rec_weight, kl_weight, adv_weight, fm_weight)
    for v in (*values, *weights):
        if not math.isfinite(v):
            raise NonFinite(f"loss terms and weights must be finite, got {v!r}")
    return (
        rec_weight * l_rec
        + kl_weight * l_kl
        + adv_weight * l_adv_g
        + fm_weight * l_fm
    )
