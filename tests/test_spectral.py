"""STFT/iSTFT, mel filterbank, log-mel analysis/inversion, MELF container."""

import dataclasses
import math
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sraug import spectral
from sraug.audio_io import Waveform, _Owned
from sraug.errors import (
    ConfigMismatch,
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
    assert (CFG.mel_ceiling, CFG.mag_ceiling) == (2.0**48, 2.0**64)
    assert CFG.n_bins == 641
    assert dataclasses.fields(SpectralConfig) == ()


# SpectralConfig takes no argument, whatever its value: another MELF
# header's values, its own constants, and out-of-range, float, string and
# None values.
@pytest.mark.parametrize(
    "kwargs",
    [
        {"hop_size": 300},
        {"n_mels": 64},
        {"sample_rate": 22050},
        {"hop_size": 320},
        {"n_mels": 80},
        {"sample_rate": 16000},
        {"hop_size": 0},
        {"hop_size": 1281},
        {"n_mels": 284},
        {"sample_rate": 8000},
        {"hop_size": 320.0},
        {"n_mels": "80"},
        {"sample_rate": None},
        {"n_fft": 1024},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(TypeError):
        SpectralConfig(**kwargs)


def test_value_types_validate_shape_and_range():
    with pytest.raises(ValueError):
        ComplexSpectrogram(np.zeros((3, 5), dtype=complex))  # wrong bin count
    with pytest.raises(ValueError):
        LinearSpectrogram(-np.ones((3, 641)))
    with pytest.raises(ValueError):
        MelSpectrogram(np.full((3, 80), FLOOR - 1.0), CFG)  # below the log floor
    with pytest.raises(ValueError):
        MelSpectrogram(np.full((3, 80), np.nan), CFG)
    # The lower bounds are inclusive, and log-mels keep the float32 slack.
    LinearSpectrogram(np.zeros((3, 641)))
    MelSpectrogram(np.full((3, 80), FLOOR - 5e-5), CFG)


# Each value type against a constructor of its one checked array, a valid
# value for that array, and the array's name in the errors.
_VALUE_TYPES = {
    "Waveform": (lambda v: Waveform(v, 16000).samples, np.zeros(4), "samples"),
    "F0Track": (lambda v: F0Track(v, 16000).f0, np.zeros(4), "f0"),
    "DiagGaussian": (lambda v: DiagGaussian(np.zeros(4), v).log_std, np.zeros(4), "log_std"),
    "ComplexSpectrogram": (
        lambda v: ComplexSpectrogram(v).values,
        np.zeros((2, 641), dtype=complex),
        "values",
    ),
    "LinearSpectrogram": (lambda v: LinearSpectrogram(v).mags, np.zeros((2, 641)), "mags"),
    "MelSpectrogram": (
        lambda v: MelSpectrogram(v, CFG).logmels,
        np.full((2, 80), FLOOR),
        "logmels",
    ),
}


@pytest.mark.parametrize("type_name", list(_VALUE_TYPES))
def test_value_types_share_one_array_rule(type_name):
    build, good, name = _VALUE_TYPES[type_name]
    not_numeric = good.astype(object)
    not_numeric.flat[0] = {"a": 1}
    with pytest.raises(ValueError, match=f"^{name} must be numeric"):
        build(not_numeric)
    for bad in (np.nan, np.inf, -np.inf):
        not_finite = good.copy()
        not_finite.flat[0] = bad
        with pytest.raises(ValueError, match=f"^{name} entries must be finite"):
            build(not_finite)
    # One rank too many, and for frames one bin too few: the error names
    # both shapes.
    shape = (None,) + good.shape[1:]
    for wrong in [good[None]] + ([good[:, 1:]] if good.ndim == 2 else []):
        message = f"{name} must have shape {shape}, got {wrong.shape}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build(wrong)
    out = build(good)
    assert not out.flags.writeable
    assert not np.shares_memory(out, good)
    np.testing.assert_array_equal(out, good)


def test_linear_and_complex_spectrograms_take_no_config():
    # Their analysis is SpectralConfig's; only MelSpectrogram keeps a config.
    assert [f.name for f in dataclasses.fields(ComplexSpectrogram)] == ["values"]
    assert [f.name for f in dataclasses.fields(LinearSpectrogram)] == ["mags"]
    assert ComplexSpectrogram(np.ones((2, 641), dtype=complex)).n_frames == 2
    assert LinearSpectrogram(np.ones((3, 641))).n_frames == 3


def test_value_checks_hold_no_whole_array_temporary():
    # Finiteness and the lower bound come from one min() and max() pair:
    # np.isfinite held one byte an element, 1.9 MB on these 3,001 frames.
    mags = np.ones((3001, CFG.n_bins), dtype=np.float32)
    tracemalloc.start()
    try:
        LinearSpectrogram(_Owned(mags))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64_000


def test_linear_spectrogram_checks_a_float32_array_as_it_is():
    # A float64 copy ahead of the float32 one peaked at three times the
    # array (23.1 MB here); one float32 copy is the whole peak.
    mags = np.ones((3001, CFG.n_bins), dtype=np.float32)
    tracemalloc.start()
    try:
        LinearSpectrogram(mags)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * mags.nbytes
    # The same float32 arrays are accepted and refused as in float64.
    mags = np.full((2, CFG.n_bins), 2.0**64, dtype=np.float32)
    assert (LinearSpectrogram(mags).mags == 2.0**64).all()
    for bad, match in ((np.nextafter(np.float32(2.0**64), np.inf), "<="), (-np.float32(1e-45), ">=")):
        mags[1, 7] = bad
        with pytest.raises(ValueError, match=f"^mags entries must be {match}"):
            LinearSpectrogram(mags)


def test_value_arrays_are_frozen():
    m = MelSpectrogram(np.full((2, 80), FLOOR), CFG)
    with pytest.raises(ValueError):
        m.logmels[0, 0] = 0.0


def test_linear_spectrogram_keeps_its_own_copy_of_a_callers_array():
    # A float32 array is copied too: changing it afterwards leaves .mags.
    for dtype in (np.float64, np.float32):
        mags = np.ones((3, 641), dtype=dtype)
        s = LinearSpectrogram(mags)
        mags[:] = 7.0
        assert s.mags.dtype == np.float32
        assert (s.mags == 1.0).all()


def test_value_types_hold_their_ceilings():
    # The ceilings are inclusive.  A caller's magnitudes are checked in
    # float64, before float32 would round 2**64 + 4096 down to 2**64 and
    # 1e300 up to infinity; log-mels keep the float32 slack.
    s = LinearSpectrogram(np.full((2, 641), 2.0**64))
    assert (s.mags == 2.0**64).all()
    for big in (np.nextafter(2.0**64, np.inf), 1e300):
        mags = np.ones((2, 641))
        mags[1, 7] = big
        with pytest.raises(ValueError, match=r"^mags entries must be <= 18446744073709551616\."):
            LinearSpectrogram(mags)
    top = math.log(CFG.mel_ceiling) + spectral._FLOOR_SLACK
    MelSpectrogram(np.full((2, 80), top), CFG)
    logmels = np.full((2, 80), FLOOR)
    logmels[0, 3] = np.nextafter(top, np.inf)
    with pytest.raises(ValueError, match=r"^logmels entries must be <= 33\.271165$"):
        MelSpectrogram(logmels, CFG)


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
    back = istft(ComplexSpectrogram(np.zeros((21, 641), dtype=complex)))
    assert len(back) == 20 * 320
    assert not back.samples.any()


def test_istft_single_frame_trims_to_nothing():
    back = istft(ComplexSpectrogram(np.zeros((1, 641), dtype=complex)))
    assert len(back) == 0


# Memory layouts of the input arrays: as drawn, every other element of a
# longer array, reversed (a negative stride), and Fortran order, which a
# spectrum keeps through ComplexSpectrogram.
_LAYOUTS = [{}, {"step": 2}, {"step": -1}, {"order": "F"}]


def _laid_out(a: np.ndarray, layout: dict) -> np.ndarray:
    step = layout.get("step", 1)
    view = np.zeros((len(a) * abs(step),) + a.shape[1:], a.dtype)[::step]
    view[:] = a
    return np.asfortranarray(view) if layout.get("order") == "F" else view


@pytest.mark.parametrize("layout", _LAYOUTS)
@pytest.mark.parametrize("n", [1, 2, 5, 319, 640, 641, 1281, 8000])
def test_stft_istft_match_serial_reference(layout, n):
    # Lengths up to n_fft/2 need np.pad's repeated reflection.
    x = np.random.default_rng(n).standard_normal(n)
    values = stft(Waveform(_laid_out(x, layout), 16000), CFG).values
    assert np.array_equal(values, ref.stft_raw(x, CFG))
    back = istft(ComplexSpectrogram(_laid_out(values, layout))).samples
    assert np.array_equal(back, ref.istft_raw(values, CFG))


def test_single_precision_ffts_stay_single():
    # Griffin-Lim's FFTs run in float32, natively since numpy 2.0.  A
    # numpy that widened them to double would still fill float32 buffers
    # through out=, only slower, so the result types are checked too.
    frames = np.random.default_rng(3).standard_normal((4, CFG.n_fft)).astype(np.float32)
    spectrum = np.empty((4, CFG.n_bins), dtype=np.complex64)
    got = np.fft.rfft(frames, CFG.n_fft, axis=1, out=spectrum)
    assert got is spectrum and got.dtype == np.complex64
    assert np.fft.rfft(frames, CFG.n_fft, axis=1).dtype == np.complex64
    back = np.empty((4, CFG.n_fft), dtype=np.float32)
    got = np.fft.irfft(spectrum, CFG.n_fft, axis=1, out=back)
    assert got is back and got.dtype == np.float32
    assert np.fft.irfft(spectrum, CFG.n_fft, axis=1).dtype == np.float32
    assert np.max(np.abs(back - frames)) < 1e-5


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
    assert a is mel_filterbank(SpectralConfig())  # built once per process
    with pytest.raises(ValueError):
        a[0, 0] = 1.0


# ---------------------------------------------------------------------------
# filterbank products over tiles


def _tiler_weights(name):
    if name == "default":
        return mel_filterbank(CFG)
    if name == "dense":
        return np.random.default_rng(3).random((80, CFG.n_bins))
    weights = np.array(mel_filterbank(CFG))  # "zero band and bin"
    weights[17] = 0.0
    weights[:, 300] = 0.0
    return weights


# mel_to_linear takes any 80 x 641 weights.  Every tile stays within
# the 65,536 inner x output columns above which OpenBLAS splits a 4-row
# gemm over its threads and may round it differently.
@pytest.mark.parametrize("name", ["default", "dense", "zero band and bin"])
def test_tiled_products_cover_the_weights(name):
    weights = _tiler_weights(name)
    for w in (weights.T, weights):  # the x W^T and the m W products
        tiles = spectral._tiles(w)
        assert len(tiles) == spectral._TILES
        covered = np.zeros(w.shape, bool)
        columns = np.zeros(w.shape[1], int)
        for inner, cols in tiles:
            covered[inner, cols] = True
            columns[cols] += 1
            assert (inner.stop - inner.start) * (cols.stop - cols.start) <= 65_536
        assert not (w != 0)[~covered].any()
        assert (columns == 1).all()  # every output column is written once
        a = np.random.default_rng(4).gamma(0.5, size=(37, w.shape[0]))
        out = np.empty((40, w.shape[1]))
        spectral._tiled_matmul(w)(np.concatenate([a, np.zeros((3, w.shape[0]))]), out)
        np.testing.assert_allclose(out[:37], a @ w, rtol=1e-12, atol=0)
        assert not out[37:].any()


def test_tiles_of_the_default_filterbank_cut_the_work_to_a_quarter():
    # 4 tiles: 13,200 and 13,769 of 51,280 multiply-adds a row.
    weights = mel_filterbank(CFG)
    for w, want in ((weights.T, 13_200), (weights, 13_769)):
        tiles = spectral._tiles(w)
        assert len(tiles) == 4
        assert sum((i.stop - i.start) * (c.stop - c.start) for i, c in tiles) == want


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
@pytest.mark.usefixtures("slab_floor_32")
@pytest.mark.parametrize("n_frames", [1, 3, 51, 64, 65, 166, 3001])
def test_mel_bytes_do_not_depend_on_slab_threads(monkeypatch, n_frames):
    w = Waveform(np.random.default_rng(n_frames).standard_normal((n_frames - 1) * 320 + 7), 16000)
    padded = -(-n_frames // 4) * 4
    mags = np.zeros((padded, CFG.n_bins))
    mags[:n_frames] = np.abs(stft(w, CFG).values)
    product = np.empty((padded, CFG.n_mels))
    spectral._tiled_matmul(mel_filterbank(CFG).T)(mags, product)
    want = np.log(np.maximum(product[:n_frames], CFG.log_floor))
    monkeypatch.setattr(spectral, "_threads", None)  # restored after the test
    for threads in (1, 2, 3):
        spectral._set_threads(threads)
        got = mel_spectrogram(w, CFG).logmels
        assert got.shape == (n_frames, CFG.n_mels)
        assert np.array_equal(got, want)


def test_mel_peak_memory_on_a_minute_of_audio(monkeypatch):
    # On 2 slab threads, 60 s at 16 kHz peaks at 13.2 MB: the padded
    # signal (7.7), the [T, n_mels] output (1.9), which the MelSpectrogram
    # takes over without a copy, and each slab's block buffers (1.6).
    # With a frozen copy of the output it was 15.1 MB; through stft, the
    # frame buffer, the spectrum and its frozen copy over all frames took
    # 71.2 MB.
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
    # On 2 slab threads, 3,001 frames peak at 10.8 MB: the float32
    # solution (7.7), which the LinearSpectrogram takes over without a
    # copy, the float32 target (1.0) and filterbank (0.2), and each slab's
    # 128-frame block buffers (0.7), or, once the blocks are done, the
    # finiteness check of the solution (1.9).  In float64, with a frozen
    # copy of the solution, it was 37.9 MB.  The bound leaves 2.2, less
    # than one more float32 array over all frames and bins (7.7).
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
    assert peak < 13e6


def test_minute_of_audio_on_32_slab_threads_gets_few_slabs(monkeypatch):
    # 3,001 frames get 3,001 // 384 = 7 slabs, not one per thread.  Each
    # slab adds its block buffers, 1.6 MB in the log-mel analysis and 0.7
    # MB in NNLS: measured 21.5 and 13.8 MB, against 62.7 and 25.7 MB when
    # each of the 32 threads got a slab.
    monkeypatch.setattr(spectral, "_threads", None)  # restored after the test
    spectral._set_threads(32)
    w = Waveform(np.random.default_rng(2).standard_normal(60 * 16000), 16000)
    rng = np.random.default_rng(6)
    m = MelSpectrogram(np.log(rng.gamma(0.5, size=(3001, CFG.n_mels)) + 1e-5), CFG)
    fb = mel_filterbank(CFG)
    peaks = []
    for stage in (lambda: mel_spectrogram(w, CFG), lambda: mel_to_linear(m, fb)):
        stage()
        tracemalloc.start()
        try:
            stage()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert len(spectral._slabs(3001)) == 7
    assert peaks[0] < 25e6 and peaks[1] < 16e6


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
    m = mel_spectrogram(synth.tone(300.0, 0.5), CFG)

    def no_solve(*args):
        raise AssertionError("the solve was set up")

    monkeypatch.setattr(spectral, "_tiled_matmul", no_solve)
    with pytest.raises(ConfigMismatch):
        mel_to_linear(m, mel_filterbank(CFG)[:40])  # 40 bands
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


# The header fields (n_mels, sample_rate, hop_size) of another analysis.
_OTHER_LAYOUTS = {
    "n_mels": (64, 16000, 320),
    "sample_rate": (80, 22050, 320),
    "hop_size": (80, 16000, 300),
}


@pytest.mark.parametrize("field", list(_OTHER_LAYOUTS))
def test_melf_of_another_layout_is_refused(tmp_path, field):
    # A well-formed file of 7 frames, whose payload a reader of that
    # layout would take.
    n_mels, rate, hop = _OTHER_LAYOUTS[field]
    payload = np.full(7 * n_mels, FLOOR, dtype="<f4").tobytes()
    path = tmp_path / "x.melf"
    path.write_bytes(struct.pack("<4sIIIII", b"MELF", 1, 7, n_mels, rate, hop) + payload)
    with pytest.raises(UnsupportedFormat, match=f"^{re.escape(str(path))}: MELF {field} "):
        read_melf(path)


@pytest.mark.parametrize("n_mels", [1283, 2**31 - 1])
def test_band_count_bound_builds_no_array(tmp_path, n_mels):
    # A header of another band count is refused before its payload is
    # sized or read, however many bands it claims (2^31 - 1 bands of
    # 2 frames would take 16 GB).
    path = tmp_path / "x.melf"
    path.write_bytes(struct.pack("<4sIIIII", b"MELF", 1, 2, n_mels, 16000, 320))
    tracemalloc.start()
    try:
        with pytest.raises(UnsupportedFormat, match="n_mels"):
            read_melf(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16


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


# Edge values and the values of this and other layouts, mixed with
# arbitrary u32s.
_U32_FIELD = st.one_of(
    st.sampled_from([0, 1, 2, 64, 80, 300, 320, 1280, 1281, 16000, 22050, 2**32 - 1]),
    st.integers(0, 2**32 - 1),
)


def _or_u32(value):
    return st.one_of(st.just(value), _U32_FIELD)


@settings(max_examples=300, deadline=None)
@given(
    header=st.tuples(_or_u32(1), _U32_FIELD, _or_u32(80), _or_u32(16000), _or_u32(320)),
    fill=st.sampled_from([FLOOR, 0.0, np.nan, -np.inf]),
    cut=st.one_of(st.none(), st.integers(0, 2000)),
)
# Headers (version, n_frames, n_bins, sample_rate, hop_size) of another layout:
@example(header=(1, 2, 80, 16000, 300), fill=0.0, cut=None)
@example(header=(1, 2, 64, 16000, 320), fill=0.0, cut=None)
@example(header=(1, 2, 80, 22050, 320), fill=0.0, cut=None)
@example(header=(1, 2, 80, 0, 320), fill=0.0, cut=None)  # sample rate 0
@example(header=(1, 2, 0, 16000, 320), fill=0.0, cut=None)  # no bands
@example(header=(1, 2, 80, 16000, 0), fill=0.0, cut=None)  # hop 0
@example(header=(1, 0, 80, 16000, 320), fill=np.nan, cut=None)  # no frames: the fill is never read
@example(header=(1, 2, 80, 16000, 320), fill=np.nan, cut=None)  # frames not finite
def test_melf_bad_header_or_payload_raises_sraug_error(tmp_path_factory, header, fill, cut):
    version, n_frames, n_bins, rate, hop = header
    n_values = n_frames * n_bins
    payload = np.full(n_values if n_values <= 4096 else 7, fill, dtype="<f4").tobytes()
    blob = struct.pack("<4sIIIII", b"MELF", *header) + payload
    path = tmp_path_factory.getbasetemp() / "fuzz.melf"
    path.write_bytes(blob[:cut])
    ours = version == 1 and (n_bins, rate, hop) == (80, 16000, 320)
    try:
        mel = read_melf(path)
    except SraugError as exc:
        expected = MalformedContainer
        if len(blob[:cut]) >= struct.calcsize("<4sIIIII") and not ours:
            expected = UnsupportedFormat  # a whole header of another version or layout
        assert type(exc) is expected
        assert str(path) in str(exc)
    else:  # a file that reads back must be well formed
        assert cut is None or cut >= len(blob)
        assert ours and n_values <= 4096 and (n_values == 0 or np.isfinite(fill))
        assert mel.logmels.shape == (n_frames, n_bins) and np.isfinite(mel.logmels).all()


def test_melf_missing_file(tmp_path):
    with pytest.raises(IoFailure):
        read_melf(tmp_path / "nope.melf")
