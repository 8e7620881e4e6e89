"""STFT/iSTFT, mel filterbank, log-mel analysis/inversion, MELF container."""

import math
import struct

import numpy as np
import pytest

from sraug.audio_io import Waveform
from sraug.errors import (
    ConfigMismatch,
    DegenerateWindowSum,
    IoFailure,
    MalformedContainer,
    UnsupportedFormat,
)
from sraug.spectral import (
    ComplexSpectrogram,
    LinearSpectrogram,
    MelSpectrogram,
    SpectralConfig,
    hz_to_mel,
    istft,
    mel_filterbank,
    mel_spectrogram,
    mel_to_hz,
    mel_to_linear,
    read_melf,
    stft,
    write_melf,
)

import synth

CFG = SpectralConfig()
FLOOR = math.log(CFG.log_floor)


# ---------------------------------------------------------------------------
# configuration and value types


def test_config_defaults_and_n_bins():
    assert (CFG.n_fft, CFG.win_size, CFG.hop_size) == (1280, 1280, 320)
    assert (CFG.n_mels, CFG.sample_rate) == (80, 16000)
    assert (CFG.fmin, CFG.fmax, CFG.log_floor) == (0.0, 8000.0, 1e-5)
    assert CFG.n_bins == 641


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n_fft": 0},
        {"hop_size": 0},
        {"win_size": 2000},  # exceeds n_fft
        {"hop_size": 1500},  # exceeds win_size
        {"fmin": -1.0},
        {"fmin": 8000.0, "fmax": 4000.0},
        {"fmax": 9000.0},  # beyond Nyquist
        {"log_floor": 0.0},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        SpectralConfig(**kwargs)


def test_value_types_validate_shape_and_range():
    with pytest.raises(ValueError):
        ComplexSpectrogram(np.zeros((3, 5), dtype=complex), CFG)  # wrong bin count
    with pytest.raises(ValueError):
        LinearSpectrogram(-np.ones((3, 641)), CFG)
    with pytest.raises(ValueError):
        MelSpectrogram(np.full((3, 80), FLOOR - 1.0), CFG)  # below the log floor
    with pytest.raises(ValueError):
        MelSpectrogram(np.full((3, 80), np.nan), CFG)


def test_value_arrays_are_frozen():
    m = MelSpectrogram(np.full((2, 80), FLOOR), CFG)
    with pytest.raises(ValueError):
        m.logmels[0, 0] = 0.0


# ---------------------------------------------------------------------------
# stft


def test_stft_shape_for_one_second():
    s = stft(synth.tone(440.0, 1.0), CFG)
    assert s.values.shape == (51, 641)


def test_stft_of_zeros_is_zero():
    s = stft(Waveform(np.zeros(16000), 16000), CFG)
    assert not s.values.any()


def test_stft_rate_mismatch():
    with pytest.raises(ConfigMismatch):
        stft(synth.tone(440.0, 0.5, sr=22050), CFG)


def test_stft_rejects_empty():
    with pytest.raises(ValueError):
        stft(Waveform(np.zeros(0), 16000), CFG)


def test_stft_1khz_peak_bin_interior_frames():
    # 1000 Hz sits exactly on bin 1000 * 1280 / 16000 = 80.  The first and
    # last couple of frames lean on reflected context and may peak one bin
    # low, so only interior frames are pinned.
    s = stft(synth.tone(1000.0, 1.0, amp=1.0), CFG)
    mags = np.abs(s.values)
    peaks = mags[2:-2].argmax(axis=1)
    assert (peaks == 80).all()


def test_stft_matches_direct_dft():
    # Independent re-computation of two frames: manual reflect pad, manual
    # periodic Hann, naive DFT matrix.
    w = synth.tone(1000.0, 0.5, amp=1.0)
    s = stft(w, CFG)
    padded = np.pad(w.samples, CFG.n_fft // 2, mode="reflect")
    n = np.arange(CFG.n_fft)
    hann = 0.5 - 0.5 * np.cos(2.0 * np.pi * n / CFG.win_size)
    dft = np.exp(-2j * np.pi * np.outer(np.arange(CFG.n_bins), n) / CFG.n_fft)
    for frame_idx in (0, 10):
        seg = padded[frame_idx * CFG.hop_size :][: CFG.n_fft] * hann
        expected = dft @ seg
        got = s.values[frame_idx]
        assert np.max(np.abs(got - expected)) < 1e-8


# ---------------------------------------------------------------------------
# istft


def test_istft_round_trip_on_noise():
    rng = np.random.default_rng(0)
    w = Waveform(rng.standard_normal(16000) * 0.3, 16000)
    back = istft(stft(w, CFG))
    assert len(back) == 16000  # (51 - 1) * 320
    assert np.max(np.abs(back.samples - w.samples)) < 1e-9


def test_istft_zero_spectrogram():
    back = istft(ComplexSpectrogram(np.zeros((21, 641), dtype=complex), CFG))
    assert len(back) == 20 * 320
    assert not back.samples.any()


def test_istft_single_frame_trims_to_nothing():
    back = istft(ComplexSpectrogram(np.zeros((1, 641), dtype=complex), CFG))
    assert len(back) == 0


def test_istft_degenerate_window_sum():
    # hop == win means the periodic Hann's zero sample is never covered by
    # a neighbouring frame, so normalization would divide by zero.
    cfg = SpectralConfig(win_size=320, hop_size=320)
    w = Waveform(np.random.default_rng(1).standard_normal(8000), 16000)
    s = stft(w, cfg)
    with pytest.raises(DegenerateWindowSum):
        istft(s)


# ---------------------------------------------------------------------------
# mel scale and filterbank


def test_mel_scale_round_trip_and_monotonic():
    f = np.linspace(0.0, 8000.0, 257)
    assert np.max(np.abs(mel_to_hz(hz_to_mel(f)) - f)) < 1e-9
    assert (np.diff(hz_to_mel(f)) > 0).all()
    assert hz_to_mel(0.0) == 0.0


def test_filterbank_shape_and_coverage():
    fb = mel_filterbank(CFG)
    assert fb.shape == (80, 641)
    assert fb.min() >= 0.0
    assert (fb > 0).any(axis=1).all()  # no empty filter
    centers = mel_to_hz(np.linspace(hz_to_mel(CFG.fmin), hz_to_mel(CFG.fmax), 82))[1:-1]
    assert CFG.fmin < centers[0] < centers[1]
    assert (np.diff(centers) > 0).all()
    # Every FFT bin strictly between the outermost centers is covered.
    hz_per_bin = CFG.sample_rate / CFG.n_fft
    lo_bin = int(np.ceil(centers[0] / hz_per_bin))
    hi_bin = int(np.floor(centers[-1] / hz_per_bin))
    assert (fb[:, lo_bin : hi_bin + 1].sum(axis=0) > 0).all()


def test_filterbank_is_deterministic_and_frozen():
    a = mel_filterbank(CFG)
    b = mel_filterbank(SpectralConfig())
    assert a is b  # cached per config
    assert np.array_equal(a, mel_filterbank.__wrapped__(CFG))
    with pytest.raises(ValueError):
        a[0, 0] = 1.0


# ---------------------------------------------------------------------------
# mel_spectrogram


def test_mel_of_silence_is_log_floor():
    m = mel_spectrogram(Waveform(np.zeros(16000), 16000), CFG)
    assert m.logmels.shape == (51, 80)
    assert np.array_equal(m.logmels, np.full((51, 80), FLOOR))
    assert abs(FLOOR - -11.512925) < 1e-6


def test_mel_tone_peak_band_is_stationary():
    m = mel_spectrogram(synth.tone(200.0, 1.0), CFG)
    peaks = m.logmels[2:-2].argmax(axis=1)
    assert (peaks == peaks[0]).all()


# ---------------------------------------------------------------------------
# mel_to_linear


def test_mel_to_linear_of_silence_is_tiny():
    # The exact solution puts ~1e-5 of mass somewhere; 50 multiplicative
    # steps land below 2e-4 on every bin (measured 1.59e-4).
    m = mel_spectrogram(Waveform(np.zeros(16000), 16000), CFG)
    lin = mel_to_linear(m, mel_filterbank(CFG))
    assert lin.mags.min() >= 0.0
    assert lin.mags.max() <= 2e-4


def test_mel_round_trip_error_on_voiced_input():
    # Frozen budget for the fixed 50-iteration solver on this pinned
    # input.  The residual concentrates in deep inter-harmonic valleys;
    # the mean is what matters for reconstruction quality.
    w = synth.voiced(1.0, 170, 260, seed=1, vibrato=5.0, noise_db=-35.0)
    m = mel_spectrogram(w, CFG)
    fb = mel_filterbank(CFG)
    lin = mel_to_linear(m, fb)
    back = np.log(np.maximum(lin.mags @ fb.T, CFG.log_floor))
    err = np.abs(back - m.logmels)
    assert err.max() <= 1.3  # measured 1.245
    assert err.mean() <= 0.05  # measured 0.037


def test_mel_to_linear_single_band_stays_in_support():
    fb = mel_filterbank(CFG)
    band = 30
    logmels = np.full((4, 80), FLOOR)
    logmels[:, band] = 0.0
    lin = mel_to_linear(MelSpectrogram(logmels, CFG), fb)
    support = fb[band] > 0
    inside = lin.mags[:, support].sum()
    outside = lin.mags[:, ~support].sum()
    assert outside <= 0.01 * inside


def test_mel_to_linear_band_count_mismatch():
    cfg40 = SpectralConfig(n_mels=40)
    m = mel_spectrogram(synth.tone(300.0, 0.5), CFG)
    with pytest.raises(ConfigMismatch):
        mel_to_linear(m, mel_filterbank(cfg40))


# ---------------------------------------------------------------------------
# MELF container


def test_melf_round_trip(tmp_path):
    m = mel_spectrogram(synth.voiced(0.5, 200, 240, seed=4), CFG)
    path = tmp_path / "x.melf"
    write_melf(path, m)
    back = read_melf(path)
    # Payload is float32, so the round trip is exact at float32 precision.
    assert np.array_equal(back.logmels, m.logmels.astype("<f4").astype(np.float64))
    assert back.config.n_mels == 80
    assert back.config.sample_rate == 16000
    assert back.config.hop_size == 320


def test_melf_write_is_deterministic(tmp_path):
    m = mel_spectrogram(synth.tone(250.0, 0.3), CFG)
    write_melf(tmp_path / "a.melf", m)
    write_melf(tmp_path / "b.melf", m)
    assert (tmp_path / "a.melf").read_bytes() == (tmp_path / "b.melf").read_bytes()


def test_melf_header_layout(tmp_path):
    m = MelSpectrogram(np.full((3, 80), FLOOR), CFG)
    path = tmp_path / "x.melf"
    write_melf(path, m)
    blob = path.read_bytes()
    magic, version, n_frames, n_bins, rate, hop = struct.unpack_from("<4sIIIII", blob)
    assert magic == b"MELF"
    assert (version, n_frames, n_bins, rate, hop) == (1, 3, 80, 16000, 320)
    assert len(blob) == 24 + 3 * 80 * 4


def test_melf_rejects_bad_magic(tmp_path):
    path = tmp_path / "x.melf"
    write_melf(path, MelSpectrogram(np.full((2, 80), FLOOR), CFG))
    blob = bytearray(path.read_bytes())
    blob[0:4] = b"NOPE"
    path.write_bytes(bytes(blob))
    with pytest.raises(MalformedContainer):
        read_melf(path)


def test_melf_rejects_future_version(tmp_path):
    path = tmp_path / "x.melf"
    write_melf(path, MelSpectrogram(np.full((2, 80), FLOOR), CFG))
    blob = bytearray(path.read_bytes())
    blob[4] = 2
    path.write_bytes(bytes(blob))
    with pytest.raises(UnsupportedFormat):
        read_melf(path)


def test_melf_rejects_truncated_payload(tmp_path):
    path = tmp_path / "x.melf"
    write_melf(path, MelSpectrogram(np.full((2, 80), FLOOR), CFG))
    blob = path.read_bytes()
    path.write_bytes(blob[:-4])
    with pytest.raises(MalformedContainer):
        read_melf(path)


def test_melf_missing_file(tmp_path):
    with pytest.raises(IoFailure):
        read_melf(tmp_path / "nope.melf")
