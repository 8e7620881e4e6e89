"""Closed-form loss arithmetic: KL, L1 reconstruction, LSGAN, feature matching."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sraug.errors import DimensionMismatch, NonFinite
from sraug.spectral import MelSpectrogram, SpectralConfig
from sraug.vc_losses import (
    DiagGaussian,
    feature_matching,
    generator_total,
    kl_diag_gaussian,
    lsgan_losses,
    recon_l1,
)

CFG = SpectralConfig()
FLOOR = math.log(CFG.log_floor)

finite_floats = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)


def gaussians(max_dim=8):
    """Strategy producing a pair of equal-dimension diagonal Gaussians."""
    return st.integers(min_value=1, max_value=max_dim).flatmap(
        lambda n: st.tuples(
            st.lists(finite_floats, min_size=n, max_size=n),
            st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=n, max_size=n),
            st.lists(finite_floats, min_size=n, max_size=n),
            st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=n, max_size=n),
        )
    )


def mel2(rows) -> MelSpectrogram:
    # 80 bands: each of a row's two values 40 times, so means are those of ``rows``.
    return MelSpectrogram(np.repeat(np.asarray(rows, dtype=np.float64), 40, axis=1), CFG)


# ---------------------------------------------------------------------------
# DiagGaussian


def test_diag_gaussian_accepts_scalars():
    g = DiagGaussian(0.0, 0.0)
    assert len(g) == 1


def test_diag_gaussian_validation():
    with pytest.raises(DimensionMismatch):
        DiagGaussian([0.0, 1.0], [0.0])
    with pytest.raises(ValueError):
        DiagGaussian([np.nan], [0.0])
    with pytest.raises(ValueError):
        DiagGaussian([[0.0, 1.0]], [[0.0, 1.0]])


@pytest.mark.parametrize("vector", [{"a": 1}, ["x"], [[0.0], [0.0, 1.0]]], ids=["dict", "str", "ragged"])
def test_diag_gaussian_rejects_non_numeric(vector):
    with pytest.raises(ValueError):
        DiagGaussian(vector, [0.0])
    with pytest.raises(ValueError):
        DiagGaussian([0.0], vector)


# ---------------------------------------------------------------------------
# KL divergence


def test_kl_identical_is_zero():
    q = DiagGaussian([0.3, -1.2], [0.1, 0.5])
    assert kl_diag_gaussian(q, q) == 0.0


@pytest.mark.parametrize("log_std", [-1e300, -745.0, -400.0, 0.0, 400.0, 745.0, 1e300])
def test_kl_identical_is_zero_at_any_finite_log_std(log_std):
    # exp(2 log_std) and exp(-2 log_std) over- and underflow out here.
    q = DiagGaussian([1.5, -2.0, 0.0], [log_std, log_std, log_std])
    assert kl_diag_gaussian(q, q) == 0.0


def test_kl_mean_gap_against_a_tiny_std():
    # A gap of 2 stds, both about 1e-174: the gap's square underflows and
    # 1 / s_p^2 overflows, yet the divergence is (2^2) / 2 = 2.
    s = math.exp(-400.0)
    q = DiagGaussian([2.0 * s], [-400.0])
    p = DiagGaussian([0.0], [-400.0])
    assert math.isclose(kl_diag_gaussian(q, p), 2.0, rel_tol=1e-12)


@pytest.mark.parametrize(
    "q, p",
    [
        (([0.0], [360.0]), ([0.0], [0.0])),  # variance ratio e^720
        (([1.0], [0.0]), ([0.0], [-400.0])),  # mean gap over a std of e^-400
        (([1e308], [0.0]), ([-1e308], [0.0])),  # the mean gap itself overflows
        (([0.0], [-1e308]), ([0.0], [1e308])),  # the log-std gap overflows
        (([0.0], [1e308]), ([0.0], [-1e308])),
    ],
)
def test_kl_beyond_float_range_is_nonfinite(q, p):
    with pytest.raises(NonFinite):
        kl_diag_gaussian(DiagGaussian(*q), DiagGaussian(*p))


def test_kl_unit_mean_shift():
    q = DiagGaussian([0.0], [0.0])
    p = DiagGaussian([1.0], [0.0])
    assert abs(kl_diag_gaussian(q, p) - 0.5) <= 1e-12


@pytest.mark.parametrize("gap", [1e-5, 1e-9])
def test_kl_small_mean_gap(gap):
    # gap^2 / 2; summed against the +-1/2 of the variance part it read
    # 5.0000004e-11 and 0.0.
    q = DiagGaussian([gap], [0.0])
    p = DiagGaussian([0.0], [0.0])
    assert math.isclose(kl_diag_gaussian(q, p), 0.5 * gap * gap, rel_tol=1e-12)


@pytest.mark.parametrize("d", [1e-9, -1e-9])
def test_kl_small_log_std_gap(d):
    # (e^(2d) - 1) / 2 - d = d^2 + O(d^3); it read -5.6e-17 at d = 1e-9.
    value = kl_diag_gaussian(DiagGaussian([0.0], [d]), DiagGaussian([0.0], [0.0]))
    assert value >= 0.0
    assert math.isclose(value, d * d, rel_tol=1e-6)


def test_kl_variance_ratio():
    # N(0,1) against N(0,4): ln 2 + 1/8 - 1/2.
    q = DiagGaussian([0.0], [0.0])
    p = DiagGaussian([0.0], [math.log(2.0)])
    assert abs(kl_diag_gaussian(q, p) - 0.318147) <= 1e-6


def test_kl_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        kl_diag_gaussian(DiagGaussian([0.0], [0.0]), DiagGaussian([0.0, 0.0], [0.0, 0.0]))


def test_kl_asymmetric():
    q = DiagGaussian([0.0], [0.0])
    p = DiagGaussian([0.0], [1.0])
    assert kl_diag_gaussian(q, p) != kl_diag_gaussian(p, q)


@settings(max_examples=200, deadline=None)
@given(gaussians())
def test_kl_non_negative(params):
    mq, sq, mp, sp = params
    value = kl_diag_gaussian(DiagGaussian(mq, sq), DiagGaussian(mp, sp))
    assert value >= -1e-12


@settings(max_examples=100, deadline=None)
@given(gaussians(max_dim=5), gaussians(max_dim=5))
def test_kl_additive_over_dimensions(a, b):
    mq1, sq1, mp1, sp1 = a
    mq2, sq2, mp2, sp2 = b
    part1 = kl_diag_gaussian(DiagGaussian(mq1, sq1), DiagGaussian(mp1, sp1))
    part2 = kl_diag_gaussian(DiagGaussian(mq2, sq2), DiagGaussian(mp2, sp2))
    whole = kl_diag_gaussian(
        DiagGaussian(mq1 + mq2, sq1 + sq2), DiagGaussian(mp1 + mp2, sp1 + sp2)
    )
    assert abs(whole - (part1 + part2)) <= 1e-9


# ---------------------------------------------------------------------------
# recon_l1


def test_recon_l1_identical_is_zero():
    m = mel2([[0.0, 1.0], [2.0, 3.0]])
    assert recon_l1(m, m) == 0.0


def test_recon_l1_constant_offset():
    a = mel2([[0.0, 1.0], [2.0, 3.0]])
    b = mel2([[0.5, 1.5], [2.5, 3.5]])
    assert abs(recon_l1(a, b) - 0.5) <= 1e-12


def test_recon_l1_hand_value():
    a = mel2([[0.0, 1.0], [2.0, 3.0]])
    b = mel2([[1.0, 1.0], [2.0, 2.0]])
    assert recon_l1(a, b) == 0.5  # (1 + 0 + 0 + 1) / 4


def test_recon_l1_shape_mismatch():
    a = mel2([[0.0, 1.0]])
    b = mel2([[0.0, 1.0], [2.0, 3.0]])
    with pytest.raises(DimensionMismatch):
        recon_l1(a, b)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    rows=st.integers(min_value=1, max_value=6),
)
def test_recon_l1_is_a_metric(seed, rows):
    rng = np.random.default_rng(seed)
    a, b, c = (mel2(FLOOR + rng.uniform(0.0, 10.0, (rows, 2))) for _ in range(3))
    assert recon_l1(a, b) >= 0.0
    assert recon_l1(a, b) == recon_l1(b, a)
    assert recon_l1(a, c) <= recon_l1(a, b) + recon_l1(b, c) + 1e-9


# ---------------------------------------------------------------------------
# LSGAN


def test_lsgan_discriminator_optimum():
    real = [np.ones((2, 3)), np.ones(4)]
    fake = [np.zeros((2, 3)), np.zeros(4)]
    loss_d, loss_g = lsgan_losses(real, fake)
    assert loss_d == 0.0
    assert loss_g == 2.0  # one unit per sub-scale


def test_lsgan_generator_optimum():
    real = [np.ones(3), np.ones(3)]
    fake = [np.ones(3), np.ones(3)]
    loss_d, loss_g = lsgan_losses(real, fake)
    assert loss_d == 2.0
    assert loss_g == 0.0


def test_lsgan_hand_value():
    loss_d, loss_g = lsgan_losses([np.array([1.0, 0.5])], [np.array([0.5])])
    assert abs(loss_d - 0.375) <= 1e-12
    assert abs(loss_g - 0.25) <= 1e-12


def test_lsgan_optima_by_grid_search():
    grid = np.linspace(-0.5, 1.5, 21)
    d_landscape = {
        (r, f): lsgan_losses([np.full(3, r)], [np.full(3, f)])[0]
        for r in grid
        for f in grid
    }
    best_r, best_f = min(d_landscape, key=d_landscape.get)
    assert (best_r, best_f) == (1.0, 0.0)
    g_landscape = {f: lsgan_losses([np.ones(3)], [np.full(3, f)])[1] for f in grid}
    assert min(g_landscape, key=g_landscape.get) == 1.0


def test_lsgan_validation():
    with pytest.raises(DimensionMismatch):
        lsgan_losses([np.ones(3)], [np.ones(3), np.ones(3)])
    with pytest.raises(ValueError):
        lsgan_losses([], [])
    with pytest.raises(ValueError):
        lsgan_losses([np.array([np.inf])], [np.ones(1)])
    with pytest.raises(ValueError):
        lsgan_losses([np.zeros(0)], [np.ones(1)])
    # Both losses check both sets, non-numeric and ragged entries
    # included, and name the set.
    for loss in (lsgan_losses, feature_matching):
        with pytest.raises(ValueError, match="^real must be numeric"):
            loss([[{"a": 1}]], [np.ones(1)])
        with pytest.raises(ValueError, match="^fake must be numeric"):
            loss([np.ones(2)], [[[0.0], [0.0, 1.0]]])
        with pytest.raises(ValueError, match="^fake entries must be finite$"):
            loss([np.ones(1)], [np.array([np.nan])])
        with pytest.raises(ValueError, match="^real entries must be finite$"):
            loss([np.ones(1), [[1.0, np.inf]]], [np.ones(1), np.ones((1, 2))])


# ---------------------------------------------------------------------------
# feature matching


def test_feature_matching_identical_is_zero():
    feats = [np.arange(6.0).reshape(2, 3), np.ones(4)]
    assert feature_matching(feats, feats) == 0.0


def test_feature_matching_single_layer_gap():
    real = [np.ones((3, 2))]
    fake = [np.zeros((3, 2))]
    assert feature_matching(real, fake) == 2.0  # unit gap times the weight 2


def test_feature_matching_averages_layers():
    real = [np.ones(4), np.ones(4)]
    fake = [np.zeros(4), np.ones(4)]
    assert feature_matching(real, fake) == 1.0  # 2 * (1 + 0) / 2


def test_feature_matching_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        feature_matching([np.ones((2, 2))], [np.ones((2, 3))])
    with pytest.raises(DimensionMismatch):
        feature_matching([np.ones(2)], [np.ones(2), np.ones(2)])


# ---------------------------------------------------------------------------
# generator_total


def test_generator_total_zero():
    assert generator_total(0.0, 0.0, 0.0, 0.0) == 0.0


def test_generator_total_plain_sum():
    assert generator_total(1.0, 2.0, 3.0, 4.0) == 10.0


def test_generator_total_rec_weight():
    assert generator_total(1.0, 0.0, 0.0, 0.0, rec_weight=45.0) == 45.0


def test_generator_total_rejects_non_finite():
    with pytest.raises(NonFinite):
        generator_total(np.nan, 0.0, 0.0, 0.0)
    with pytest.raises(NonFinite):
        generator_total(1.0, 0.0, 0.0, 0.0, fm_weight=np.inf)
    with pytest.raises(NonFinite):
        generator_total("1", 0.0, 0.0, 0.0)


@settings(max_examples=100, deadline=None)
@given(
    terms=st.tuples(finite_floats, finite_floats, finite_floats, finite_floats),
    weights=st.tuples(finite_floats, finite_floats, finite_floats, finite_floats),
)
def test_generator_total_weighted_sum(terms, weights):
    expected = sum(w * t for w, t in zip(weights, terms))
    got = generator_total(
        *terms,
        rec_weight=weights[0],
        kl_weight=weights[1],
        adv_weight=weights[2],
        fm_weight=weights[3],
    )
    assert abs(got - expected) <= 1e-9
