"""Axis resizing, the vertical/horizontal resize operations, ratio sampling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sraug.audio_io import _round_half_up
from sraug.pitch_eval import PitchConfig, yin_f0
from sraug.spectral import MelSpectrogram, SpectralConfig, mel_spectrogram
from sraug.sr_ops import (
    HORIZONTAL,
    VERTICAL,
    RatioRange,
    ResizeSpec,
    horizontal_sr,
    resize,
    resize_axis,
    sample_ratio,
    vertical_sr,
)
from sraug.vocoder import GriffinLimConfig, reconstruct_from_mel

import synth

CFG = SpectralConfig()
FLOOR = math.log(CFG.log_floor)


def mel_from(logmels) -> MelSpectrogram:
    return MelSpectrogram(np.asarray(logmels, dtype=np.float64), CFG)


# ---------------------------------------------------------------------------
# resize_axis


def test_resize_axis_identity_is_exact_copy():
    mat = np.random.default_rng(0).normal(size=(5, 7))
    out = resize_axis(mat, 7, VERTICAL)
    assert out is not mat
    assert np.array_equal(out, mat)


def test_resize_axis_midpoint():
    out = resize_axis(np.array([[0.0, 1.0]]), 3, VERTICAL)
    assert np.array_equal(out, [[0.0, 0.5, 1.0]])


def test_resize_axis_keeps_endpoints_when_shrinking():
    out = resize_axis(np.array([[0.0, 1.0, 2.0, 3.0]]), 2, VERTICAL)
    assert np.array_equal(out, [[0.0, 3.0]])


def test_resize_axis_single_line_takes_first():
    out = resize_axis(np.array([[4.0, 5.0, 6.0]]), 1, VERTICAL)
    assert np.array_equal(out, [[4.0]])


def test_resize_axis_time_dimension():
    mat = np.array([[0.0, 10.0], [2.0, 12.0], [4.0, 14.0]])
    out = resize_axis(mat, 5, HORIZONTAL)
    assert out.shape == (5, 2)
    assert np.allclose(out[:, 0], [0.0, 1.0, 2.0, 3.0, 4.0])
    assert np.allclose(out[:, 1], [10.0, 11.0, 12.0, 13.0, 14.0])


@pytest.mark.parametrize(
    "mat,new_len,axis",
    [
        (np.zeros((0, 3)), 2, VERTICAL),
        (np.zeros((2, 3)), 0, VERTICAL),
        (np.zeros(3), 2, VERTICAL),  # 1-D
        (np.zeros((2, 3)), 2, "diagonal"),
    ],
)
def test_resize_axis_rejects_bad_input(mat, new_len, axis):
    with pytest.raises(ValueError):
        resize_axis(mat, new_len, axis)


@settings(max_examples=100, deadline=None)
@given(
    rows=st.integers(min_value=1, max_value=12),
    cols=st.integers(min_value=2, max_value=40),
    new_len=st.integers(min_value=2, max_value=70),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_resize_axis_properties(rows, cols, new_len, seed):
    mat = np.random.default_rng(seed).normal(size=(rows, cols))
    out = resize_axis(mat, new_len, VERTICAL)
    assert out.shape == (rows, new_len)
    # Endpoints are copied exactly; interpolation never extrapolates.
    assert np.array_equal(out[:, 0], mat[:, 0])
    assert np.array_equal(out[:, -1], mat[:, -1])
    assert out.min() >= mat.min() - 1e-12
    assert out.max() <= mat.max() + 1e-12
    # Linear interpolation of a sorted line stays sorted.
    ramp = np.sort(mat, axis=1)
    assert (np.diff(resize_axis(ramp, new_len, VERTICAL), axis=1) >= -1e-12).all()


# ---------------------------------------------------------------------------
# specs and ranges


@pytest.mark.parametrize(
    "kwargs",
    [
        {"ratio": 0.4},
        {"ratio": 2.5},
        {"ratio": float("nan")},
        {"ratio": 1.0, "axis": "sideways"},
        {"ratio": 1.0, "pad_noise_std": -0.1},
        {"ratio": 1.0, "seed": -1},
        {"ratio": 1.0, "seed": 1.5},
    ],
)
def test_resize_spec_validation(kwargs):
    with pytest.raises(ValueError):
        ResizeSpec(**kwargs)


def test_ratio_range_validation():
    with pytest.raises(ValueError):
        RatioRange(1.2, 0.9)
    with pytest.raises(ValueError):
        RatioRange(0.1, 1.0)
    assert RatioRange(1.0, 1.0).lo == 1.0


# ---------------------------------------------------------------------------
# vertical_sr


def test_vertical_identity_is_bit_exact():
    m = mel_spectrogram(synth.voiced(0.5, 180, 220, seed=2), CFG)
    out = vertical_sr(m, ResizeSpec(ratio=1.0))
    assert np.array_equal(out.logmels, m.logmels)


def test_vertical_squeeze_pads_top():
    m = mel_spectrogram(synth.voiced(0.5, 180, 220, seed=2), CFG)
    out = vertical_sr(m, ResizeSpec(ratio=0.85, seed=9))
    assert out.logmels.shape == m.logmels.shape
    content = resize_axis(m.logmels, 68, VERTICAL)  # round(80 * 0.85) = 68
    assert np.array_equal(out.logmels[:, :68], content)
    pad = out.logmels[:, 68:]
    assert pad.shape == (m.n_frames, 12)
    assert pad.min() >= FLOOR
    # Padding copies each frame's top surviving bin plus small noise.
    gap = np.abs(pad - content[:, -1:])
    assert gap.mean() < 0.15
    assert gap.max() < 0.8


def test_vertical_squeeze_zero_noise_copies_top_bin():
    m = mel_spectrogram(synth.voiced(0.4, 200, 210, seed=3), CFG)
    out = vertical_sr(m, ResizeSpec(ratio=0.9, pad_noise_std=0.0))
    content = resize_axis(m.logmels, 72, VERTICAL)
    pad = out.logmels[:, 72:]
    assert np.array_equal(pad, np.repeat(content[:, -1:], 8, axis=1))


def test_vertical_stretch_cuts_top():
    m = mel_spectrogram(synth.voiced(0.5, 180, 220, seed=2), CFG)
    out = vertical_sr(m, ResizeSpec(ratio=1.15))
    assert out.logmels.shape == m.logmels.shape
    stretched = resize_axis(m.logmels, 92, VERTICAL)  # round(80 * 1.15) = 92
    assert np.array_equal(out.logmels, stretched[:, :80])


def test_vertical_requires_vertical_axis():
    m = mel_spectrogram(synth.tone(200.0, 0.3), CFG)
    with pytest.raises(ValueError):
        vertical_sr(m, ResizeSpec(ratio=0.9, axis=HORIZONTAL))


def test_vertical_seed_determinism_and_explicit_rng():
    m = mel_spectrogram(synth.voiced(0.4, 150, 260, seed=5), CFG)
    spec = ResizeSpec(ratio=0.85, seed=77)
    a = vertical_sr(m, spec)
    b = vertical_sr(m, spec)
    c = vertical_sr(m, spec, np.random.default_rng(77))
    assert np.array_equal(a.logmels, b.logmels)
    assert np.array_equal(a.logmels, c.logmels)
    d = vertical_sr(m, ResizeSpec(ratio=0.85, seed=78))
    assert not np.array_equal(a.logmels, d.logmels)


def test_vertical_stretch_raises_measured_pitch():
    # Squeezing the frequency axis down lowers pitch; stretching raises it.
    m = mel_spectrogram(synth.voiced(1.0, 200, 200, seed=6), CFG)
    up = reconstruct_from_mel(vertical_sr(m, ResizeSpec(ratio=1.15)), GriffinLimConfig())
    track = yin_f0(up, PitchConfig())
    voiced = track.f0[track.f0 > 0]
    assert np.median(voiced) > 210.0  # measured ~237 for a 200 Hz source
    assert np.median(voiced) < 260.0


# ---------------------------------------------------------------------------
# horizontal_sr


def test_horizontal_identity():
    m = mel_spectrogram(synth.voiced(0.5, 180, 220, seed=2), CFG)
    out = horizontal_sr(m, ResizeSpec(ratio=1.0, axis=HORIZONTAL))
    assert np.array_equal(out.logmels, m.logmels)


def test_horizontal_halving_rounds_half_up():
    m = mel_spectrogram(synth.tone(220.0, 1.0), CFG)  # 51 frames
    out = horizontal_sr(m, ResizeSpec(ratio=0.5, axis=HORIZONTAL))
    assert out.logmels.shape == (26, 80)  # round(25.5) rounds up


def test_horizontal_stationary_input_unchanged():
    row = np.linspace(FLOOR, 2.0, 80)
    m = mel_from(np.tile(row, (40, 1)))
    out = horizontal_sr(m, ResizeSpec(ratio=1.3, axis=HORIZONTAL))
    assert out.n_frames == 52
    assert np.max(np.abs(out.logmels - row)) < 1e-6


def test_horizontal_needs_two_frames():
    m = mel_from(np.full((1, 80), FLOOR))
    with pytest.raises(ValueError):
        horizontal_sr(m, ResizeSpec(ratio=1.2, axis=HORIZONTAL))


def test_horizontal_requires_horizontal_axis():
    m = mel_from(np.full((4, 80), FLOOR))
    with pytest.raises(ValueError):
        horizontal_sr(m, ResizeSpec(ratio=1.2))


@settings(max_examples=80, deadline=None)
@given(
    n_frames=st.integers(min_value=2, max_value=200),
    ratio=st.floats(min_value=0.5, max_value=2.0),
)
def test_horizontal_frame_count_formula(n_frames, ratio):
    m = mel_from(np.full((n_frames, 80), FLOOR))
    out = horizontal_sr(m, ResizeSpec(ratio=ratio, axis=HORIZONTAL))
    assert out.n_frames == max(1, _round_half_up(n_frames * ratio))


@pytest.mark.parametrize("axis", [VERTICAL, HORIZONTAL])
def test_resize_dispatches_on_axis(axis):
    m = mel_from(np.random.default_rng(3).uniform(FLOOR, 0.0, (6, 80)))
    spec = ResizeSpec(ratio=0.8, axis=axis, seed=5)
    if axis == VERTICAL:
        expected = vertical_sr(m, spec, np.random.default_rng(8))
    else:
        expected = horizontal_sr(m, spec)
    out = resize(m, spec, np.random.default_rng(8))
    np.testing.assert_array_equal(out.logmels, expected.logmels)


# ---------------------------------------------------------------------------
# sample_ratio


def test_sample_ratio_degenerate_range():
    assert sample_ratio(RatioRange(1.0, 1.0), np.random.default_rng(0)) == 1.0


def test_sample_ratio_mean_and_bounds():
    rng = np.random.default_rng(0)
    draws = np.array([sample_ratio(RatioRange(0.85, 1.15), rng) for _ in range(100_000)])
    assert abs(draws.mean() - 1.0) < 0.005  # measured 0.99987
    assert draws.min() >= 0.85
    assert draws.max() <= 1.15


def test_sample_ratio_seed_reproducibility():
    a = [sample_ratio(RatioRange(), np.random.default_rng(42)) for _ in range(1)]
    b = [sample_ratio(RatioRange(), np.random.default_rng(42)) for _ in range(1)]
    assert a == b
    rng1, rng2 = np.random.default_rng(7), np.random.default_rng(7)
    seq1 = [sample_ratio(RatioRange(), rng1) for _ in range(10)]
    seq2 = [sample_ratio(RatioRange(), rng2) for _ in range(10)]
    assert seq1 == seq2
