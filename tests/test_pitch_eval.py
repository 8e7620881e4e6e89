"""YIN pitch tracking, Pearson correlation, and the F0-PCC metric."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sraug.audio_io import Waveform
from sraug.errors import (
    ConfigMismatch,
    DegenerateVariance,
    InputTooShort,
    InsufficientVoicedOverlap,
    IoFailure,
)
from sraug import pitch_eval
from sraug.pitch_eval import F0Track, PitchConfig, f0_pcc, pearson, write_f0_csv, yin_f0

import serial_reference as ref
import synth

PCFG = PitchConfig()


# ---------------------------------------------------------------------------
# configuration and track type


def test_pitch_config_is_fixed():
    # The benchmark's f0_pcc and f0_shift_err_cents are measured with
    # exactly these values.
    assert dataclasses.fields(PitchConfig) == ()
    assert (PCFG.f0_min, PCFG.f0_max, PCFG.yin_threshold) == (50.0, 600.0, 0.15)
    assert (PCFG.frame_size, PCFG.hop_size) == (1280, 320)


# What were settings, valid values or not, are no longer accepted at all.
@pytest.mark.parametrize(
    "kwargs",
    [
        {"f0_min": 0.0},
        {"f0_min": 600.0, "f0_max": 600.0},
        {"frame_size": 0},
        {"hop_size": 0},
        {"yin_threshold": 0.0},
        {"yin_threshold": 1.5},
        {"frame_size": 1280.0},
        {"hop_size": 320.5},
        {"yin_threshold": "0.1"},
        {"f0_max": float("inf")},
        {"f0_min": 60.0},
    ],
)
def test_pitch_config_validation(kwargs):
    with pytest.raises(TypeError):
        PitchConfig(**kwargs)


def test_f0_track_validation_and_helpers():
    with pytest.raises(ValueError):
        F0Track(np.array([100.0, -1.0]), 16000)
    with pytest.raises(ValueError):
        F0Track(np.array([[100.0]]), 16000)
    for sample_rate in (0, 2.5):
        with pytest.raises(ValueError):
            F0Track(np.array([100.0]), sample_rate)
    track = F0Track(np.array([0.0, 220.0, 0.0, 230.0]), 16000)
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


def test_yin_is_scale_free():
    # Each block is scaled by a power of two, which is exact: a loud or a
    # quiet tone gets the plain tone's track, where squaring its samples
    # overflowed (1e200) or underflowed (1e-300) into 0 voiced frames.
    tone = synth.tone(150.0, 1.0)
    want = yin_f0(tone, PCFG).f0
    assert np.count_nonzero(want) == 47
    for scale in (2.0**600, 2.0**-600):
        assert np.array_equal(yin_f0(Waveform(tone.samples * scale, 16000), PCFG).f0, want)
    for amp in (1e200, 1e-300):
        assert np.count_nonzero(yin_f0(synth.tone(150.0, 1.0, amp=amp), PCFG).f0) == 47


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


@pytest.mark.parametrize("sr", [16000, 48000])
def test_cmndf_matches_its_definition(sr):
    # d(tau) = sum over j < frame_size - tau_max of (x_j - x_{j+tau})^2,
    # normalized by its running mean over lags 1..tau.
    tau_max = math.ceil(sr / PCFG.f0_min)
    window = PCFG.frame_size - tau_max
    frames = np.random.default_rng(sr).standard_normal((3, PCFG.frame_size))
    frames[1] = synth.voiced(0.2, 150, 150, sr=sr).samples[sr // 20 :][: PCFG.frame_size]
    shifted = np.lib.stride_tricks.sliding_window_view(frames, window, axis=1)
    d = ((frames[:, None, :window] - shifted[:, : tau_max + 1]) ** 2).sum(axis=2)
    expected = np.ones_like(d)
    expected[:, 1:] = d[:, 1:] * np.arange(1, tau_max + 1) / np.cumsum(d[:, 1:], axis=1)
    np.testing.assert_allclose(pitch_eval._cmndf(frames, tau_max), expected, rtol=0, atol=1e-9)


# One frame, a block's edge (255-257 frames) and several blocks with a
# short last one, at 16 kHz and at 48 kHz (lags to 960, 1,600-point FFTs).
@pytest.mark.parametrize("n_frames", [1, 7, 255, 256, 257, 600])
@pytest.mark.parametrize("sr", [16000, 48000])
def test_yin_blocks_match_one_pass_over_all_frames(monkeypatch, n_frames, sr):
    n = PCFG.frame_size + PCFG.hop_size * (n_frames - 1)
    w = synth.voiced(n / sr + 0.01, 110, 320, seed=n_frames, sr=sr, vibrato=5.0)
    w = Waveform(w.samples[:n], sr)
    frames = np.lib.stride_tricks.sliding_window_view(w.samples, PCFG.frame_size)
    frames = np.ascontiguousarray(frames[:: PCFG.hop_size])
    tau_max = math.ceil(sr / PCFG.f0_min)
    whole = pitch_eval._cmndf(frames, tau_max)
    for block in (pitch_eval._YIN_BLOCK, 7):
        cuts = range(0, n_frames, block)
        parts = [pitch_eval._cmndf(frames[lo : lo + block], tau_max) for lo in cuts]
        assert np.array_equal(np.concatenate(parts), whole)
    track = yin_f0(w, PCFG).f0
    monkeypatch.setattr(pitch_eval, "_YIN_BLOCK", n_frames)
    assert np.array_equal(track, yin_f0(w, PCFG).f0)
    assert len(track) == n_frames


def _pick_signal(kind: str, sr: int, n: int) -> Waveform:
    dur = n / sr + 0.01
    if kind == "noise":
        return Waveform(0.3 * np.random.default_rng(4).standard_normal(n), sr)
    if kind == "silence":
        return Waveform(np.zeros(n), sr)
    if kind == "voiced":
        w = synth.voiced(dur, 120, 180, seed=1, sr=sr)
    elif kind == "vibrato":
        w = synth.voiced(dur, 110, 320, seed=2, sr=sr, vibrato=6.0)
    else:  # a chirp past both ends of [f0_min, f0_max]
        w = synth.voiced(dur, 40, 700, seed=3, sr=sr)
    return Waveform(w.samples[:n], sr)


# The chirp reaches every branch of the pick: a walk to tau_max, a lag
# left unrefined, and both ends of the clip to [f0_min, f0_max].
@pytest.mark.parametrize("kind", ["voiced", "vibrato", "chirp", "noise", "silence"])
@pytest.mark.parametrize("sr", [8000, 16000, 22050, 48000])
def test_yin_matches_the_per_frame_reference(kind, sr):
    def n_samples(n_frames):
        return PCFG.frame_size + PCFG.hop_size * (n_frames - 1)

    w = _pick_signal(kind, sr, n_samples(600))
    for n_frames in (255, 256, 257, 600):
        part = Waveform(w.samples[: n_samples(n_frames)], sr)
        assert np.array_equal(yin_f0(part, PCFG).f0, ref.yin_f0(part, PCFG))


def test_yin_memory_does_not_grow_with_input_length():
    # Whole-file YIN held about 92 kB a frame: 277 MB on this 60 s file
    # at 16 kHz.  A 256-frame block peaks at 20 MB at 16 kHz and at 27 MB
    # at 48 kHz, whose 961 lags a frame triple the lag arrays.
    for sr in (16000, 48000):
        w = synth.voiced(60.0, 110, 300, seed=1, sr=sr)
        tracemalloc.start()
        try:
            yin_f0(w, PCFG)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6, sr


def test_yin_input_too_short():
    with pytest.raises(InputTooShort):
        yin_f0(Waveform(np.zeros(1000), 16000), PCFG)


def test_yin_f0_max_must_be_below_nyquist():
    # 600 Hz is above the 500 Hz Nyquist frequency of a 1 kHz waveform.
    with pytest.raises(ValueError, match="below Nyquist"):
        yin_f0(Waveform(np.zeros(4000), 1000), PCFG)


def test_yin_frame_must_cover_lowest_period():
    # At 64 kHz, 64,000 / 50 = 1,280 lags do not fit a 1,280-sample frame.
    with pytest.raises(ValueError, match="frame_size too small"):
        yin_f0(Waveform(np.zeros(64000), 64000), PCFG)
    yin_f0(Waveform(np.zeros(63950), 63950), PCFG)  # 1,279 lags: the highest rate


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
    # The wrong rank, named with both shapes.
    with pytest.raises(ValueError, match=r"^x must have shape \(None,\), got \(1, 3\)$"):
        pearson([[1.0, 2.0, 3.0]], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match=r"^y must have shape \(None,\), got \(\)$"):
        pearson([1.0, 2.0, 3.0], 2.0)


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


def test_f0_pcc_rejects_two_sample_rates():
    # A frame is 320 samples of each waveform's own rate: 20 ms at 16 kHz,
    # 6.7 ms at 48 kHz.  The tracks would be compared frame by frame.
    low = synth.voiced(1.0, 150, 250, seed=5, vibrato=5.0)
    high = synth.voiced(1.0, 150, 250, seed=5, vibrato=5.0, sr=48000)
    with pytest.raises(ConfigMismatch, match="16000 Hz vs converted at 48000 Hz"):
        f0_pcc(low, high, PCFG)


def test_f0_pcc_silence_has_no_overlap():
    silence = Waveform(np.zeros(16000), 16000)
    with pytest.raises(InsufficientVoicedOverlap):
        f0_pcc(silence, synth.voiced(1.0, 200, 250, seed=6), PCFG)


# ---------------------------------------------------------------------------
# CSV export


def test_write_f0_csv(tmp_path):
    track = F0Track(np.array([0.0, 220.5, 330.25]), 16000)
    path = tmp_path / "f0.csv"
    write_f0_csv(path, track)
    lines = path.read_text().splitlines()
    assert lines[0] == "frame,time_sec,f0_hz"
    assert lines[1] == "0,0.000000,0.000000"
    assert lines[2] == "1,0.020000,220.500000"
    assert lines[3] == "2,0.040000,330.250000"


def test_write_f0_csv_io_failure(tmp_path):
    track = F0Track(np.array([220.0]), 16000)
    with pytest.raises(IoFailure):
        write_f0_csv(tmp_path / "missing" / "f0.csv", track)
