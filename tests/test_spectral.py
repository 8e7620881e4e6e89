"""STFT/iSTFT, mel filterbank, log-mel analysis/inversion, MELF container."""

import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sraug.audio_io import Waveform
from sraug.errors import (
    ConfigMismatch,
    DegenerateWindowSum,
    IoFailure,
    MalformedContainer,
    SraugError,
    UnsupportedFormat,
)
from sraug.pitch_eval import F0Track
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
from sraug.vc_losses import DiagGaussian

import serial_reference as ref
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
        {"n_fft": 1280.5},  # integer fields reject a float
        {"win_size": 1280.0},
        {"hop_size": 320.0},
        {"n_mels": 80.0},
        {"sample_rate": 16000.0},
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
    # The lower bounds are inclusive, and log-mels keep the float32 slack.
    LinearSpectrogram(np.zeros((3, 641)), CFG)
    MelSpectrogram(np.full((3, 80), FLOOR - 5e-5), CFG)


# Each value type against a constructor of its one checked array, and a
# valid value for that array.
_VALUE_TYPES = {
    "Waveform": (lambda v: Waveform(v, 16000).samples, np.zeros(4)),
    "F0Track": (lambda v: F0Track(v, 320, 16000).f0, np.zeros(4)),
    "DiagGaussian": (lambda v: DiagGaussian(np.zeros(4), v).log_std, np.zeros(4)),
    "ComplexSpectrogram": (
        lambda v: ComplexSpectrogram(v, CFG).values,
        np.zeros((2, 641), dtype=complex),
    ),
    "LinearSpectrogram": (lambda v: LinearSpectrogram(v, CFG).mags, np.zeros((2, 641))),
    "MelSpectrogram": (lambda v: MelSpectrogram(v, CFG).logmels, np.full((2, 80), FLOOR)),
}


@pytest.mark.parametrize("type_name", list(_VALUE_TYPES))
def test_value_types_share_one_array_rule(type_name):
    build, good = _VALUE_TYPES[type_name]
    not_numeric = good.astype(object)
    not_numeric.flat[0] = {"a": 1}
    with pytest.raises(ValueError):
        build(not_numeric)
    not_finite = good.copy()
    not_finite.flat[0] = np.nan
    with pytest.raises(ValueError):
        build(not_finite)
    with pytest.raises(ValueError):
        build(good[None])  # one rank too many
    out = build(good)
    assert not out.flags.writeable
    assert not np.shares_memory(out, good)
    np.testing.assert_array_equal(out, good)


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


# Configurations whose frame buffer has a zero tail (hop does not divide
# n_fft) or whose window is shorter than the FFT.
_LAYOUTS = [
    {},
    {"win_size": 1000},
    {"hop_size": 300},
    {"n_fft": 1000, "win_size": 900, "hop_size": 240},
]


@pytest.mark.parametrize("layout", _LAYOUTS)
@pytest.mark.parametrize("n", [1, 2, 5, 319, 640, 641, 1281, 8000])
def test_stft_istft_match_serial_reference(layout, n):
    # Lengths up to n_fft/2 need np.pad's repeated reflection.
    cfg = SpectralConfig(**layout)
    x = np.random.default_rng(n).standard_normal(n)
    values = stft(Waveform(x, 16000), cfg).values
    assert np.array_equal(values, ref.stft_raw(x, cfg))
    assert np.array_equal(istft(ComplexSpectrogram(values, cfg)).samples, ref.istft_raw(values, cfg))


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


# Values near the SpectralConfig limits, mixed with arbitrary u32s.
_U32_FIELD = st.one_of(
    st.sampled_from([0, 1, 2, 80, 320, 1280, 1281, 15999, 16000, 2**32 - 1]),
    st.integers(0, 2**32 - 1),
)


@settings(max_examples=300, deadline=None)
@given(
    header=st.tuples(st.one_of(st.just(1), _U32_FIELD), *[_U32_FIELD] * 4),
    fill=st.sampled_from([FLOOR, 0.0, np.nan, -np.inf]),
    cut=st.one_of(st.none(), st.integers(0, 2000)),
)
# Headers (version, n_frames, n_bins, sample_rate, hop_size) that SpectralConfig rejects:
@example(header=(1, 2, 80, 0, 320), fill=0.0, cut=None)  # sample rate 0
@example(header=(1, 2, 0, 16000, 320), fill=0.0, cut=None)  # no bands
@example(header=(1, 2, 80, 16000, 0), fill=0.0, cut=None)  # hop 0
@example(header=(1, 2, 80, 16000, 1281), fill=0.0, cut=None)  # hop > win_size
@example(header=(1, 2, 80, 15999, 320), fill=0.0, cut=None)  # rate < 2 * fmax
@example(header=(1, 0, 80, 16000, 320), fill=np.nan, cut=None)  # no frames: the fill is never read
def test_melf_bad_header_or_payload_raises_sraug_error(tmp_path_factory, header, fill, cut):
    version, n_frames, n_bins, rate, hop = header
    n_values = n_frames * n_bins
    payload = np.full(n_values if n_values <= 4096 else 7, fill, dtype="<f4").tobytes()
    blob = struct.pack("<4sIIIII", b"MELF", *header) + payload
    path = tmp_path_factory.getbasetemp() / "fuzz.melf"
    path.write_bytes(blob[:cut])
    try:
        mel = read_melf(path)
    except SraugError as exc:
        expected = MalformedContainer
        if len(blob[:cut]) >= struct.calcsize("<4sIIIII") and version != 1:
            expected = UnsupportedFormat  # a whole header of another version
        assert type(exc) is expected
        assert str(path) in str(exc)
    else:  # a file that reads back must be well formed
        assert cut is None or cut >= len(blob)
        assert version == 1 and n_values <= 4096 and (n_values == 0 or np.isfinite(fill))
        assert mel.logmels.shape == (n_frames, n_bins) and np.isfinite(mel.logmels).all()


def test_melf_missing_file(tmp_path):
    with pytest.raises(IoFailure):
        read_melf(tmp_path / "nope.melf")
