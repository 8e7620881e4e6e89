"""Training-loss arithmetic for a CVAE/GAN voice-conversion stack.

Pure numpy math with no autodiff: these exist so a trainer (or a test)
can check its own loss plumbing against closed-form values.

ScoreSet / FeatureSet are plain sequences of real matrices: one score
matrix per discriminator sub-scale, one feature matrix per layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .audio_io import _frozen_array, _real
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
        mean = _frozen_array(np.atleast_1d(self.mean), np.float64, (None,), "mean")
        log_std = _frozen_array(np.atleast_1d(self.log_std), np.float64, (None,), "log_std")
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

    Identical Gaussians give exactly 0.0.  A divergence too large for a
    float raises NonFinite.

    NOTE: when the prior sits behind a volume-preserving flow (unit
    Jacobian determinant), the flow adds nothing to the divergence, but
    the parameters passed here must already be the *pushed-forward* ones.
    Feeding pre-flow parameters silently computes a different quantity.
    """
    if len(q) != len(p):
        raise DimensionMismatch(f"q has {len(q)} dims, p has {len(p)}")
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        gap = np.abs(q.mean - p.mean)
        # Both quotients by s_p^2 as exponentials of log differences: one
        # overflows only when the divergence is near the float range, and
        # a zero mean gap gives exp(-inf) = 0, never 0 times an overflow.
        # The variance part, 0.5 * (s_q^2 / s_p^2 - 1) - ln(s_q / s_p), is
        # 0.5 * expm1(2d) - d, so a small divergence does not cancel
        # against the 1/2 and is never negative.
        d = q.log_std - p.log_std
        gap_ratio = np.exp(2.0 * (np.log(gap) - p.log_std))
        terms = (0.5 * np.expm1(2.0 * d) - d) + 0.5 * gap_ratio
        total = float(terms.sum())
    if not np.isfinite(total):
        raise NonFinite(f"KL divergence beyond float range ({total})")
    return total


def recon_l1(target_mel: MelSpectrogram, pred_mel: MelSpectrogram) -> float:
    """Mean absolute difference between two equal-shape mel matrices."""
    a = target_mel.logmels
    b = pred_mel.logmels
    if a.shape != b.shape:
        raise DimensionMismatch(f"mel shapes differ: {a.shape} vs {b.shape}")
    return float(np.mean(np.abs(a - b)))


def _check_pairs(real, fake, unit: str) -> list[tuple[np.ndarray, np.ndarray]]:
    """Pair up two sets of arrays, one ``unit`` each.

    Each set must hold at least one array, each a non-empty float64
    _frozen_array of any shape, and the two sets must be of one length.
    """
    sets = []
    for name, arrays in (("real", real), ("fake", fake)):
        if len(arrays) == 0:
            raise ValueError(f"{name} must contain at least one {unit}")
        arrays = [_frozen_array(a, np.float64, None, name) for a in arrays]
        if any(a.size == 0 for a in arrays):
            raise ValueError(f"{name} entries must be non-empty")
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
    (pass rec_weight=45 to opt in).  A non-finite term or weight is NonFinite.
    """
    try:
        for v in (l_rec, l_kl, l_adv_g, l_fm, rec_weight, kl_weight, adv_weight, fm_weight):
            _real(v, "each loss term and weight")
    except ValueError as exc:
        raise NonFinite(str(exc)) from None
    return (
        rec_weight * l_rec
        + kl_weight * l_kl
        + adv_weight * l_adv_g
        + fm_weight * l_fm
    )
