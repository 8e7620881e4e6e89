"""STFT/iSTFT, mel filterbank, log-mel analysis/inversion, MELF container."""

import dataclasses
import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sraug import spectral
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
    assert (CFG.n_fft, CFG.hop_size) == (1280, 320)
    assert (CFG.n_mels, CFG.sample_rate) == (80, 16000)
    assert (CFG.fmin, CFG.fmax, CFG.log_floor) == (0.0, 8000.0, 1e-5)
    assert CFG.n_bins == 641


@pytest.mark.parametrize(
    "kwargs",
    [
        {"hop_size": 0},
        {"hop_size": 1500},  # exceeds n_fft
        {"hop_size": 1281},
        {"n_mels": 0},
        {"sample_rate": 0},
        {"sample_rate": 8000},  # below 2 * fmax
        {"sample_rate": 15999},
        {"hop_size": 320.5},  # the fields reject a float, a string and None
        {"hop_size": 320.0},
        {"n_mels": 80.0},
        {"sample_rate": 16000.0},
        {"n_mels": "80"},
        {"sample_rate": None},
        {"hop_size": -320},
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
    hann = 0.5 - 0.5 * np.cos(2.0 * np.pi * n / CFG.n_fft)
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
    # hop == n_fft means the periodic Hann's zero sample is never covered
    # by a neighbouring frame, so normalization would divide by zero.
    cfg = SpectralConfig(hop_size=1280)
    w = Waveform(np.random.default_rng(1).standard_normal(8000), 16000)
    s = stft(w, cfg)
    with pytest.raises(DegenerateWindowSum):
        istft(s)


# The default layout and three whose hop does not divide n_fft, so the
# last overlap-add chunk is narrower than a hop.
_LAYOUTS = [
    {},
    {"hop_size": 384},
    {"hop_size": 300},
    {"hop_size": 240},
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


# From 284 bands at 16 kHz some of the lowest filters would fall between
# two FFT bins (1 at 284 bands, 9 at 400); such a band count is refused.
@pytest.mark.parametrize("n_mels, empty", [(283, 0), (284, 1), (400, 9)])
def test_filterbank_empty_filters_from_284_bands(n_mels, empty):
    if empty:
        with pytest.raises(ValueError, match=f"leave {empty} mel filters with no FFT bin"):
            SpectralConfig(n_mels=n_mels)
    else:
        assert mel_filterbank(SpectralConfig(n_mels=n_mels)).any(axis=1).all()


@pytest.mark.parametrize("sample_rate, most", [(22050, 206), (48000, 95)])
def test_band_count_limit_at_other_rates(sample_rate, most):
    cfg = SpectralConfig(n_mels=most, sample_rate=sample_rate)
    assert mel_filterbank(cfg).any(axis=1).all()
    with pytest.raises(ValueError, match="mel filters with no FFT bin"):
        SpectralConfig(n_mels=most + 1, sample_rate=sample_rate)


@pytest.mark.parametrize("n_mels", [1283, 2**31 - 1])
def test_band_count_bound_builds_no_array(n_mels):
    # Above 2 * n_bins bands the count is refused before the band edges
    # (n_mels + 2 floats) are computed.
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="n_mels must be at most 1282"):
            SpectralConfig(n_mels=n_mels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16


def test_filterbank_is_deterministic_and_frozen():
    a = mel_filterbank(CFG)
    b = mel_filterbank(SpectralConfig())
    assert a is b  # cached per config
    assert np.array_equal(a, mel_filterbank.__wrapped__(CFG))
    with pytest.raises(ValueError):
        a[0, 0] = 1.0


# ---------------------------------------------------------------------------
# filterbank products over tiles


def _tiler_weights(name):
    if name == "default":
        return mel_filterbank(CFG)
    if name == "283 bands":
        return mel_filterbank(SpectralConfig(n_mels=283))
    if name == "dense":
        return np.random.default_rng(3).random((80, CFG.n_bins))
    weights = np.array(mel_filterbank(CFG))  # "zero band and bin"
    weights[17] = 0.0
    weights[:, 300] = 0.0
    return weights


@pytest.mark.parametrize("name", ["default", "283 bands", "dense", "zero band and bin"])
def test_tiled_products_cover_the_weights(name):
    weights = _tiler_weights(name)
    for w in (weights.T, weights):  # the x W^T and the m W products
        tiles = spectral._tiles(w)
        covered = np.zeros(w.shape, bool)
        columns = np.zeros(w.shape[1], int)
        for inner, cols in tiles:
            covered[inner, cols] = True
            columns[cols] += 1
            assert (inner.stop - inner.start) * (cols.stop - cols.start) <= 65_536
        assert not (w != 0)[~covered].any()
        assert (columns == 1).all()  # every output column is written once
        a = np.random.default_rng(4).gamma(0.5, size=(37, w.shape[0]))
        want = a @ w
        np.testing.assert_allclose(spectral._tiled_matmul(w)(a), want, rtol=1e-12, atol=0)
        out = np.empty((40, w.shape[1]))
        got = spectral._tiled_matmul(w)(np.concatenate([a, np.zeros((3, w.shape[0]))]), out)
        np.testing.assert_allclose(got[:37], want, rtol=1e-12, atol=0)
        assert not got[37:].any()


def test_tiles_of_the_default_filterbank_cut_the_work_to_a_quarter():
    # 4 tiles: 13,200 and 13,769 of 51,280 multiply-adds a row.
    weights = mel_filterbank(CFG)
    for w, want in ((weights.T, 13_200), (weights, 13_769)):
        tiles = spectral._tiles(w)
        assert len(tiles) == 4
        assert sum((i.stop - i.start) * (c.stop - c.start) for i, c in tiles) == want


def test_tiles_cap_a_dense_product():
    # A dense 512 x 641 product is 328,192 inner x output columns a row,
    # so each of the 4 runs of columns is cut into runs of at most
    # 65,536 // inner columns.
    weights = np.random.default_rng(5).random((512, CFG.n_bins))
    assert [c for _, c in spectral._tiles(weights.T)] == [
        slice(0, 102), slice(102, 128), slice(128, 230), slice(230, 256),
        slice(256, 358), slice(358, 384), slice(384, 486), slice(486, 512),
    ]
    assert [c for _, c in spectral._tiles(weights)] == [
        slice(0, 128), slice(128, 160), slice(160, 288), slice(288, 320),
        slice(320, 448), slice(448, 480), slice(480, 608), slice(608, 641),
    ]


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


# 1 and 3 frames fill less than one 4-row group; 64 and 65 frames sit at
# the 64-frame block edge; 166 and 3,001 frames give slabs of several
# blocks.  Only 64 is a multiple of 4, so the others pad the last group.
@pytest.mark.parametrize("n_frames", [1, 3, 51, 64, 65, 166, 3001])
def test_mel_bytes_do_not_depend_on_slab_threads(monkeypatch, n_frames):
    w = Waveform(np.random.default_rng(n_frames).standard_normal((n_frames - 1) * 320 + 7), 16000)
    mags = np.abs(stft(w, CFG).values)
    product = spectral._tiled_matmul(mel_filterbank(CFG).T)
    want = np.log(np.maximum(product(mags), CFG.log_floor))
    monkeypatch.setattr(spectral, "_threads", None)  # restored after the test
    for threads in (1, 2, 3):
        spectral._set_threads(threads)
        got = mel_spectrogram(w, CFG).logmels
        assert got.shape == (n_frames, CFG.n_mels)
        assert np.array_equal(got, want)


def test_mel_peak_memory_on_a_minute_of_audio(monkeypatch):
    # On 2 slab threads, 60 s at 16 kHz peaks at 15.1 MB: the padded
    # signal (7.7), the [T, n_mels] output (1.9), its frozen copy, and
    # each slab's block buffers (1.6).  Through stft, the frame buffer,
    # the spectrum and its frozen copy over all frames took 71.2 MB.
    monkeypatch.setattr(spectral, "_threads", None)  # restored after the test
    spectral._set_threads(2)
    w = Waveform(np.random.default_rng(2).standard_normal(60 * 16000), 16000)
    mel_spectrogram(w, CFG)
    tracemalloc.start()
    try:
        mel_spectrogram(w, CFG)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6


# ---------------------------------------------------------------------------
# mel_to_linear


def test_mel_to_linear_of_silence_is_tiny():
    # The exact solution puts ~1e-5 of mass somewhere; 50 multiplicative
    # steps land below 2e-4 on every bin (measured 1.59e-4).
    m = mel_spectrogram(Waveform(np.zeros(16000), 16000), CFG)
    lin = mel_to_linear(m, mel_filterbank(CFG))
    assert lin.mags.min() >= 0.0
    assert lin.mags.max() <= 2e-4


def test_nnls_peak_memory_on_a_minute_of_audio(monkeypatch):
    # On 2 slab threads, 3,001 frames peak at about 38 MB: the solution
    # and its frozen copy (15.4 MB each), the target (1.9), the frozen
    # filterbank (0.4) and each slab's 128-frame block buffers (1.4).
    # One more array over all frames and bins would add 15.4.
    monkeypatch.setattr(spectral, "_threads", None)  # restored after the test
    spectral._set_threads(2)
    rng = np.random.default_rng(6)
    m = MelSpectrogram(np.log(rng.gamma(0.5, size=(3001, CFG.n_mels)) + 1e-5), CFG)
    fb = mel_filterbank(CFG)
    mel_to_linear(m, fb)
    tracemalloc.start()
    try:
        mel_to_linear(m, fb)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 42e6


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
    # The filterbank as a nested list is the same filterbank.
    from_list = mel_to_linear(MelSpectrogram(logmels, CFG), fb.tolist())
    assert np.array_equal(from_list.mags, lin.mags)


def test_mel_to_linear_band_count_mismatch(monkeypatch):
    cfg40 = SpectralConfig(n_mels=40)
    m = mel_spectrogram(synth.tone(300.0, 0.5), CFG)

    def no_solve(*args):
        raise AssertionError("the solve was set up")

    monkeypatch.setattr(spectral, "_tiled_matmul", no_solve)
    with pytest.raises(ConfigMismatch):
        mel_to_linear(m, mel_filterbank(cfg40))
    with pytest.raises(ConfigMismatch, match="80 x 641"):
        mel_to_linear(m, np.zeros((80, 513)))  # the bins of a 1024-point FFT
    with pytest.raises(ValueError):
        mel_to_linear(m, mel_filterbank(CFG)[0])  # a single row


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


# A value other than its default for every SpectralConfig field.
_NON_DEFAULT = {"hop_size": 300, "n_mels": 64, "sample_rate": 22050}


def test_config_fields_are_what_a_melf_header_stores():
    assert [f.name for f in dataclasses.fields(SpectralConfig)] == [
        "hop_size", "n_mels", "sample_rate"
    ]
    with pytest.raises(TypeError):
        SpectralConfig(n_fft=1024)  # the window, band edges and floor are fixed


@pytest.mark.parametrize("sample_rate", [22050, 48000])
def test_melf_round_trip_returns_an_equal_config(tmp_path, sample_rate):
    # Every field away from its default, so one the header did not store
    # would read back different.
    settings = {f.name: _NON_DEFAULT[f.name] for f in dataclasses.fields(SpectralConfig)}
    cfg = SpectralConfig(**{**settings, "sample_rate": sample_rate})
    logmels = np.random.default_rng(sample_rate).uniform(FLOOR, 2.0, (7, cfg.n_mels))
    path = tmp_path / "x.melf"
    write_melf(path, MelSpectrogram(logmels, cfg))
    back = read_melf(path)
    assert back.config == cfg
    assert np.array_equal(back.logmels, logmels.astype("<f4").astype(np.float64))


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


def test_melf_rejects_a_band_count_with_empty_filters(tmp_path):
    # A whole 24-byte file: no frames and 2^31 - 1 bands, whose filterbank
    # would take about 55 TB.
    path = tmp_path / "x.melf"
    path.write_bytes(struct.pack("<4sIIIII", b"MELF", 1, 0, 2**31 - 1, 16000, 320))
    with pytest.raises(MalformedContainer, match="n_mels must be at most"):
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
@example(header=(1, 2, 80, 16000, 1281), fill=0.0, cut=None)  # hop > n_fft
@example(header=(1, 2, 80, 15999, 320), fill=0.0, cut=None)  # rate < 2 * fmax
@example(header=(1, 2, 284, 16000, 320), fill=0.0, cut=None)  # an empty mel filter
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
