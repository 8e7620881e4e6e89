"""YIN pitch tracking, Pearson correlation, and the F0-PCC metric."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sraug.audio_io import Waveform
from sraug.errors import (
    DegenerateVariance,
    InputTooShort,
    InsufficientVoicedOverlap,
    IoFailure,
)
from sraug.pitch_eval import F0Track, PitchConfig, f0_pcc, pearson, write_f0_csv, yin_f0

import synth

PCFG = PitchConfig()


# ---------------------------------------------------------------------------
# configuration and track type


@pytest.mark.parametrize(
    "kwargs",
    [
        {"f0_min": 0.0},
        {"f0_min": 600.0, "f0_max": 600.0},
        {"frame_size": 0},
        {"hop_size": 0},
        {"yin_threshold": 0.0},
        {"yin_threshold": 1.5},
        {"frame_size": 1280.0},  # integer fields reject a float
        {"hop_size": 320.5},
    ],
)
def test_pitch_config_validation(kwargs):
    with pytest.raises(ValueError):
        PitchConfig(**kwargs)


def test_f0_track_validation_and_helpers():
    with pytest.raises(ValueError):
        F0Track(np.array([100.0, -1.0]), 320, 16000)
    with pytest.raises(ValueError):
        F0Track(np.array([[100.0]]), 320, 16000)
    for hop_size, sample_rate in ((0, 16000), (2.5, 16000), (320, 0)):
        with pytest.raises(ValueError):
            F0Track(np.array([100.0]), hop_size, sample_rate)
    track = F0Track(np.array([0.0, 220.0, 0.0, 230.0]), 320, 16000)
    assert len(track) == 4
    assert np.array_equal(track.voiced, [False, True, False, True])
    assert np.allclose(track.times(), [0.0, 0.02, 0.04, 0.06])


# ---------------------------------------------------------------------------
# yin_f0


def test_yin_frame_count_and_silence():
    track = yin_f0(Waveform(np.zeros(16000), 16000), PCFG)
    assert len(track) == (16000 - 1280) // 320 + 1
    assert not track.f0.any()


def test_yin_pure_tone_accuracy():
    track = yin_f0(synth.tone(220.0, 1.0), PCFG)
    voiced = track.f0[track.f0 > 0]
    assert voiced.size > 40
    assert abs(np.median(voiced) - 220.0) <= 1.0


@pytest.mark.parametrize("freq", [100.0, 150.0, 250.0, 330.0, 500.0])
def test_yin_no_octave_errors_on_tones(freq):
    track = yin_f0(synth.tone(freq, 1.0), PCFG)
    voiced = track.f0[track.f0 > 0]
    assert abs(np.median(voiced) - freq) <= 0.01 * freq


def test_yin_tracks_a_glide():
    w = synth.voiced(1.5, 150, 300, seed=2)
    track = yin_f0(w, PCFG)
    true = np.linspace(150.0, 300.0, len(track))
    voiced = track.f0 > 0
    assert voiced.mean() > 0.9
    err = np.abs(track.f0[voiced] - true[voiced])
    assert (err <= 0.1 * true[voiced]).all()


def test_yin_white_noise_mostly_unvoiced():
    rng = np.random.default_rng(11)
    track = yin_f0(Waveform(0.3 * rng.standard_normal(16000), 16000), PCFG)
    assert (track.f0 == 0).mean() >= 0.9  # measured 1.0


def test_yin_voiced_range_invariant():
    w = synth.voiced(1.0, 140, 320, seed=9, vibrato=6.0)
    track = yin_f0(w, PCFG)
    voiced = track.f0[track.f0 > 0]
    assert voiced.min() >= PCFG.f0_min
    assert voiced.max() <= PCFG.f0_max
    # Unvoiced frames are exactly 0.0, never a small positive number.
    unvoiced = track.f0[~track.voiced]
    assert (unvoiced == 0.0).all()


def test_yin_input_too_short():
    with pytest.raises(InputTooShort):
        yin_f0(Waveform(np.zeros(1000), 16000), PCFG)


def test_yin_f0_max_must_be_below_nyquist():
    w = Waveform(np.zeros(4000), 8000)
    with pytest.raises(ValueError):
        yin_f0(w, PitchConfig(f0_max=5000.0))


def test_yin_frame_must_cover_lowest_period():
    with pytest.raises(ValueError):
        yin_f0(synth.tone(220.0, 1.0), PitchConfig(f0_min=10.0))


# ---------------------------------------------------------------------------
# pearson


def test_pearson_perfect_correlation():
    assert pearson([1.0, 2.0, 3.0], [2.0, 4.0, 6.0]) == 1.0
    assert pearson([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]) == -1.0


def test_pearson_hand_value():
    assert abs(pearson([1.0, 2.0, 3.0], [1.0, 2.0, 4.0]) - 0.9820) <= 1e-4


def test_pearson_rejects_constant_input():
    with pytest.raises(DegenerateVariance):
        pearson([5.0, 5.0, 5.0], [1.0, 2.0, 3.0])
    with pytest.raises(DegenerateVariance):
        pearson([1.0, 2.0, 3.0], [7.0, 7.0, 7.0 + 1e-9])


def test_pearson_rejects_bad_shapes():
    with pytest.raises(ValueError):
        pearson([1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        pearson([1.0], [2.0])
    with pytest.raises(ValueError):
        pearson([{"a": 1}, 1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        pearson([1.0, np.nan, 3.0], [1.0, 2.0, 3.0])


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**16), n=st.integers(min_value=3, max_value=60))
def test_pearson_symmetry_and_range(seed, n):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n)
    y = rng.normal(size=n)
    r = pearson(x, y)
    assert r == pearson(y, x)  # bit-exact symmetry
    assert -1.0 - 1e-12 <= r <= 1.0 + 1e-12


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**16),
    scale=st.floats(min_value=0.1, max_value=10.0),
    shift=st.floats(min_value=-5.0, max_value=5.0),
)
def test_pearson_affine_invariance(seed, scale, shift):
    x = np.random.default_rng(seed).normal(size=30)
    assert abs(pearson(x, scale * x + shift) - 1.0) < 1e-9


# ---------------------------------------------------------------------------
# f0_pcc


def test_f0_pcc_self_is_one():
    w = synth.voiced(1.2, 180, 260, seed=1, vibrato=5.0)
    assert abs(f0_pcc(w, w, PCFG) - 1.0) <= 1e-6


def test_f0_pcc_scaled_glide():
    a = synth.voiced(1.5, 150, 300, seed=2)
    b = synth.voiced(1.5, 180, 360, seed=3)  # the same glide scaled by 1.2
    assert f0_pcc(a, b, PCFG) > 0.99  # measured 0.99999


def test_f0_pcc_truncates_to_shorter():
    w = synth.voiced(1.5, 150, 300, seed=2)
    head = Waveform(w.samples[:16000], 16000)
    assert abs(f0_pcc(w, head, PCFG) - 1.0) <= 1e-6


def test_f0_pcc_constant_tones_degenerate():
    with pytest.raises(DegenerateVariance):
        f0_pcc(synth.tone(220.0, 1.0), synth.tone(300.0, 1.0), PCFG)


def test_f0_pcc_needs_voiced_overlap():
    # 0.25 s yields at most 9 frames, below the 10-frame minimum.
    a = synth.voiced(0.25, 200, 240, seed=4)
    b = synth.voiced(0.25, 210, 250, seed=5)
    with pytest.raises(InsufficientVoicedOverlap):
        f0_pcc(a, b, PCFG)


def test_f0_pcc_silence_has_no_overlap():
    silence = Waveform(np.zeros(16000), 16000)
    with pytest.raises(InsufficientVoicedOverlap):
        f0_pcc(silence, synth.voiced(1.0, 200, 250, seed=6), PCFG)


# ---------------------------------------------------------------------------
# CSV export


def test_write_f0_csv(tmp_path):
    track = F0Track(np.array([0.0, 220.5, 330.25]), 320, 16000)
    path = tmp_path / "f0.csv"
    write_f0_csv(path, track)
    lines = path.read_text().splitlines()
    assert lines[0] == "frame,time_sec,f0_hz"
    assert lines[1] == "0,0.000000,0.000000"
    assert lines[2] == "1,0.020000,220.500000"
    assert lines[3] == "2,0.040000,330.250000"


def test_write_f0_csv_io_failure(tmp_path):
    track = F0Track(np.array([220.0]), 320, 16000)
    with pytest.raises(IoFailure):
        write_f0_csv(tmp_path / "missing" / "f0.csv", track)
