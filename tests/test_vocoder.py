"""Griffin-Lim reconstruction and the external vocoder hook."""

import sys
import tracemalloc

import numpy as np
import pytest

from sraug import vocoder
from sraug.audio_io import Waveform, read_wav, write_wav
from sraug.errors import DegenerateWindowSum, VocoderOutputMissing, VocoderProcessFailure
from sraug.pitch_eval import PitchConfig, yin_f0
from sraug.spectral import (
    LinearSpectrogram,
    SpectralConfig,
    mel_filterbank,
    mel_spectrogram,
    mel_to_linear,
    stft,
)
from sraug.vocoder import GriffinLimConfig, external_vocoder, griffin_lim, reconstruct_from_mel

import serial_reference as ref
import synth

CFG = SpectralConfig()


def magnitudes(w: Waveform) -> LinearSpectrogram:
    return LinearSpectrogram(np.abs(stft(w, CFG).values), CFG)


def median_f0(w: Waveform) -> float:
    track = yin_f0(w, PitchConfig())
    voiced = track.f0[track.f0 > 0]
    assert voiced.size > 0
    return float(np.median(voiced))


# ---------------------------------------------------------------------------
# configuration


@pytest.mark.parametrize("kwargs", [{"n_iters": 0}, {"n_iters": 2.5}])
def test_gl_config_validation(kwargs):
    with pytest.raises(ValueError):
        GriffinLimConfig(**kwargs)


# ---------------------------------------------------------------------------
# griffin_lim


def test_gl_zero_spectrogram_gives_silence():
    out = griffin_lim(LinearSpectrogram(np.zeros((21, 641)), CFG), GriffinLimConfig())
    assert len(out) == 20 * 320
    assert not out.samples.any()


def test_gl_single_frame_gives_empty():
    out = griffin_lim(LinearSpectrogram(np.ones((1, 641)), CFG), GriffinLimConfig())
    assert len(out) == 0


def test_gl_recovers_tone_pitch():
    out = griffin_lim(magnitudes(synth.tone(440.0, 1.0)), GriffinLimConfig())
    assert abs(median_f0(out) - 440.0) <= 2.0  # measured 440.4


def test_gl_more_iterations_do_not_hurt():
    # Spectral convergence after 60 steps must not exceed the 10-step error.
    m = mel_spectrogram(synth.voiced(1.0, 170, 260, seed=1, vibrato=5.0, noise_db=-35.0), CFG)
    target = mel_to_linear(m, mel_filterbank(CFG)).mags

    def convergence(n_iters):
        out = reconstruct_from_mel(m, GriffinLimConfig(n_iters=n_iters))
        got = np.abs(stft(out, CFG).values)
        n = min(got.shape[0], target.shape[0])
        return np.linalg.norm(got[:n] - target[:n]) / np.linalg.norm(target[:n])

    assert convergence(60) <= convergence(10)  # measured 0.125 vs 0.181


def test_gl_hop_aligned_cosine_snr():
    # A 500 Hz cosine sits on bin 40 and turns a whole number of cycles
    # per hop (its 32-sample period divides the 320-sample hop), so the
    # start's first frame, -pi*k, is already its true phase, and even
    # absolute phase is recovered.
    t = np.arange(16000) / 16000
    w = Waveform(0.5 * np.cos(2 * np.pi * 500.0 * t), 16000)
    out = griffin_lim(magnitudes(w), GriffinLimConfig())
    n = min(len(out), len(w))
    a = w.samples[640 : n - 640]
    b = out.samples[640 : n - 640]
    snr = 10 * np.log10(np.sum(a**2) / np.sum((a - b) ** 2))
    assert snr > 55.0  # measured 68.6


def test_gl_is_deterministic():
    mags = magnitudes(synth.voiced(0.4, 200, 240, seed=8))
    a = griffin_lim(mags, GriffinLimConfig())
    b = griffin_lim(mags, GriffinLimConfig())
    assert np.array_equal(a.samples, b.samples)


def test_gl_start_phase_fits_a_bin_centred_tone():
    # 512.5 Hz sits on bin 41 and turns a quarter cycle per hop.  The
    # start gives its bins their true phase up to one constant, so a
    # single iteration is nearly converged; from zero phase it is at
    # 0.67.  A cosine, because a sine's reflect-padded first frame holds
    # a cusp that no peak fits (it starts from 0.13).
    t = np.arange(16000) / 16000
    target = magnitudes(Waveform(0.5 * np.cos(2 * np.pi * 512.5 * t), 16000))
    out = griffin_lim(target, GriffinLimConfig(n_iters=1))
    got = np.abs(stft(out, CFG).values)
    convergence = np.linalg.norm(got - target.mags) / np.linalg.norm(target.mags)
    assert convergence < 0.05  # measured 0.0047


def test_gl_start_keeps_peak_memory():
    # At 1,751 frames the loop's buffers and temporaries peak at about
    # 13.6 x T x n_bins x 8 bytes.  The start works in those buffers and
    # in blocks of frames, so it must not raise that peak.
    n_frames = 1751
    mags = np.random.default_rng(5).gamma(0.5, size=(n_frames, CFG.n_bins))
    s = LinearSpectrogram(mags, CFG)
    griffin_lim(s, GriffinLimConfig(n_iters=1))  # fills the cached window sum
    tracemalloc.start()
    try:
        griffin_lim(s, GriffinLimConfig(n_iters=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 14 * n_frames * CFG.n_bins * 8


def test_gl_limits_output_peak():
    loud = LinearSpectrogram(magnitudes(synth.tone(300.0, 0.5, amp=1.0)).mags * 40.0, CFG)
    out = griffin_lim(loud, GriffinLimConfig(n_iters=5))
    assert np.max(np.abs(out.samples)) <= 0.95 + 1e-12


class _CountingPool(vocoder.ThreadPoolExecutor):
    sizes: list = []

    def __init__(self, n):
        super().__init__(n)
        self.sizes.append(n)


# (frames, threads, n_iters, config): 2 and 3 frames give a single slab,
# 31/32/65 frames sit at the 32-frame slab floor, and 301 frames give each
# of 2 or 3 threads a slab of about 100 frames.
_GL_CASES = [
    (2, 2, 3, {}),
    (3, 3, 3, {}),
    (31, 2, 3, {}),
    (32, 2, 3, {}),
    (65, 1, 3, {}),
    (65, 2, 3, {}),
    (65, 3, 3, {}),
    (301, 2, 2, {}),
    (301, 3, 2, {}),
    (126, 3, 1, {}),
    (126, 2, 3, {"win_size": 1000}),
    (126, 3, 3, {"hop_size": 300}),
    (126, 2, 3, {"n_fft": 1000, "win_size": 900, "hop_size": 240}),
]


@pytest.mark.parametrize("n_frames, threads, n_iters, layout", _GL_CASES)
def test_gl_matches_serial_reference(monkeypatch, n_frames, threads, n_iters, layout):
    cfg = SpectralConfig(**layout)
    mags = np.random.default_rng(n_frames).gamma(0.5, size=(n_frames, cfg.n_bins))
    _CountingPool.sizes = []
    monkeypatch.setattr(vocoder, "ThreadPoolExecutor", _CountingPool)
    monkeypatch.setattr(vocoder, "_threads", None)  # restored after the test
    vocoder._set_threads(threads)
    got = griffin_lim(LinearSpectrogram(mags, cfg), GriffinLimConfig(n_iters=n_iters))
    want = ref.griffin_lim(mags, cfg, n_iters)
    assert np.array_equal(got.samples, want.samples)
    slabs = min(threads, n_frames // 32)
    assert _CountingPool.sizes == ([slabs] if slabs > 1 else [])


def test_gl_slabs_under_thread_pressure(monkeypatch):
    # More threads than cores, switching every microsecond: a slab that
    # wrote outside its own rows would change the output bytes.
    mags = np.random.default_rng(7).gamma(0.5, size=(301, CFG.n_bins))
    monkeypatch.setattr(vocoder, "_threads", None)
    vocoder._set_threads(8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = griffin_lim(LinearSpectrogram(mags, CFG), GriffinLimConfig(n_iters=4))
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(got.samples, ref.griffin_lim(mags, CFG, 4).samples)


def test_gl_default_threads_match_serial_reference():
    mags = magnitudes(synth.voiced(1.0, 170, 260, seed=3)).mags
    got = griffin_lim(LinearSpectrogram(mags, CFG), GriffinLimConfig(n_iters=5))
    assert np.array_equal(got.samples, ref.griffin_lim(mags, CFG, 5).samples)


def test_gl_degenerate_window_sum_raises_before_first_iteration(monkeypatch):
    # hop == win leaves the Hann window's zero sample uncovered.
    cfg = SpectralConfig(win_size=320, hop_size=320)

    def no_analysis(*args):
        raise AssertionError("an iteration ran")

    monkeypatch.setattr(vocoder, "_analyze", no_analysis)
    with pytest.raises(DegenerateWindowSum):
        griffin_lim(LinearSpectrogram(np.ones((40, cfg.n_bins)), cfg), GriffinLimConfig())


def test_thread_count_rejects_zero():
    with pytest.raises(ValueError):
        vocoder._set_threads(0)


# ---------------------------------------------------------------------------
# reconstruct_from_mel


def test_reconstruct_silence_is_quiet():
    m = mel_spectrogram(Waveform(np.zeros(16000), 16000), CFG)
    out = reconstruct_from_mel(m, GriffinLimConfig())
    assert len(out) == 16000  # (51 - 1) * 320
    assert np.sqrt(np.mean(out.samples**2)) < 1e-3


def test_reconstruct_tone_keeps_pitch():
    m = mel_spectrogram(synth.tone(220.0, 1.0), CFG)
    out = reconstruct_from_mel(m, GriffinLimConfig())
    assert abs(median_f0(out) - 220.0) <= 5.0


# ---------------------------------------------------------------------------
# external_vocoder


STUB_OK = """\
import sys
from sraug.audio_io import write_wav
from sraug.spectral import read_melf
from sraug.vocoder import GriffinLimConfig, reconstruct_from_mel

mel = read_melf(sys.argv[1])
write_wav(sys.argv[2], reconstruct_from_mel(mel, GriffinLimConfig()))
"""

STUB_RATE = """\
import sys

import numpy as np

from sraug.audio_io import Waveform, write_wav

t = np.arange(22050) / 22050
write_wav(sys.argv[2], Waveform(0.4 * np.sin(2 * np.pi * 440.0 * t), 22050))
"""


def test_external_stub_matches_internal(tmp_path):
    m = mel_spectrogram(synth.voiced(0.4, 190, 230, seed=12), CFG)
    stub = tmp_path / "stub.py"
    stub.write_text(STUB_OK)
    got = external_vocoder(m, f"{sys.executable} {stub} {{mel}} {{wav}}")

    # The stub reads the float32 serialization of the mel, so the fair
    # internal comparison goes through the same container and the same
    # PCM-16 quantization.
    from sraug.spectral import read_melf, write_melf

    mel_path = tmp_path / "ref.melf"
    write_melf(mel_path, m)
    internal = reconstruct_from_mel(read_melf(mel_path), GriffinLimConfig())
    ref_path = tmp_path / "ref.wav"
    write_wav(ref_path, internal)
    expected = read_wav(ref_path)

    assert got.sample_rate == expected.sample_rate
    assert np.array_equal(got.samples, expected.samples)


def test_external_vocoder_resamples_foreign_rate(tmp_path):
    m = mel_spectrogram(synth.tone(220.0, 0.3), CFG)
    stub = tmp_path / "stub.py"
    stub.write_text(STUB_RATE)
    out = external_vocoder(m, f"{sys.executable} {stub} {{mel}} {{wav}}")
    assert out.sample_rate == 16000
    assert len(out) == 16000  # round(22050 * 16000 / 22050)


def test_external_vocoder_nonzero_exit(tmp_path):
    m = mel_spectrogram(synth.tone(220.0, 0.3), CFG)
    cmd = f"{sys.executable} -c 'import sys; sys.stderr.write(\"boom\"); sys.exit(3)' {{mel}} {{wav}}"
    with pytest.raises(VocoderProcessFailure) as excinfo:
        external_vocoder(m, cmd)
    assert excinfo.value.returncode == 3
    assert "boom" in excinfo.value.stderr


def test_external_vocoder_missing_output(tmp_path):
    m = mel_spectrogram(synth.tone(220.0, 0.3), CFG)
    with pytest.raises(VocoderOutputMissing):
        external_vocoder(m, f"{sys.executable} -c pass {{mel}} {{wav}}")


def test_external_vocoder_unlaunchable_command():
    m = mel_spectrogram(synth.tone(220.0, 0.3), CFG)
    with pytest.raises(VocoderProcessFailure):
        external_vocoder(m, "/no/such/binary {mel} {wav}")


def test_external_vocoder_timeout():
    m = mel_spectrogram(synth.tone(220.0, 0.3), CFG)
    cmd = f"{sys.executable} -c 'import time; time.sleep(30)' {{mel}} {{wav}}"
    with pytest.raises(VocoderProcessFailure):
        external_vocoder(m, cmd, timeout=0.5)


def test_external_vocoder_requires_placeholders():
    m = mel_spectrogram(synth.tone(220.0, 0.3), CFG)
    with pytest.raises(ValueError):
        external_vocoder(m, "vocoder --in foo --out bar")
