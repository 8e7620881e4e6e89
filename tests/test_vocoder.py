"""Griffin-Lim reconstruction and the external vocoder hook."""

import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from sraug import spectral, vocoder
from sraug.audio_io import Waveform, read_wav, write_wav
from sraug.errors import VocoderOutputMissing, VocoderProcessFailure
from sraug.pitch_eval import PitchConfig, yin_f0
from sraug.spectral import (
    LinearSpectrogram,
    MelSpectrogram,
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
    return LinearSpectrogram(np.abs(stft(w, CFG).values))


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
    out = griffin_lim(LinearSpectrogram(np.zeros((21, 641))), GriffinLimConfig())
    assert len(out) == 20 * 320
    assert not out.samples.any()


def test_gl_single_frame_gives_empty():
    out = griffin_lim(LinearSpectrogram(np.ones((1, 641))), GriffinLimConfig())
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


def test_gl_start_keeps_peak_memory(monkeypatch):
    # At 1,751 frames on 2 slab threads the loop's arrays peak at 0.75 x
    # T x n_bins x 8 bytes.  Besides the input's float32 magnitudes, which
    # the loop reads in place, only the float32 signal array spans all
    # frames: its two halves span all samples (0.25 each), and the output
    # widens into it.  Each slab's block buffers and window of frames add
    # 0.05, and the per-block temporaries of the two slab threads about
    # 0.15, most of it _peak_turns'.  (It was 0.82 while the start kept
    # the first phase of every 32-frame block and _peak_turns repeated its
    # turns in complex128.)  The window sum is a table of a few frames'
    # rows, not a third half over all samples (0.25 more with one).  The
    # bound leaves
    # 0.28, less than a float32 copy of the magnitudes or a float64 output
    # (0.5 each), let alone the 1 of a complex64 spectrum over all frames
    # (1.79 when the momentum kept one).  The start works in those buffers
    # and in blocks of frames, so it must not raise that peak.
    monkeypatch.setattr(spectral, "_threads", None)  # restored after the test
    spectral._set_threads(2)
    n_frames = 1751
    mags = np.random.default_rng(5).gamma(0.5, size=(n_frames, CFG.n_bins))
    s = LinearSpectrogram(mags)
    griffin_lim(s, GriffinLimConfig(n_iters=1))
    tracemalloc.start()
    try:
        griffin_lim(s, GriffinLimConfig(n_iters=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * n_frames * CFG.n_bins * 8


def _gl_peak(n_frames: int, n_iters: int) -> int:
    s = LinearSpectrogram(np.random.default_rng(n_frames).gamma(0.5, size=(n_frames, CFG.n_bins)))
    tracemalloc.start()
    try:
        griffin_lim(s, GriffinLimConfig(n_iters=n_iters))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n_iters", [1, 2])
def test_gl_holds_one_array_over_all_frames(monkeypatch, n_iters):
    # The peak's growth per frame, between 400 and 2,400 frames, is the
    # signal array's 2 x (hop x 4 bytes), 2,560 bytes (measured 2,572; it
    # was 2,734 while the start kept the first phase of every 32-frame
    # block, 160 bytes a frame).  Any other array over all frames adds at
    # least a float32 signal's 1,280; the bound allows 400.  Either half
    # may hold the last signal (odd and even iteration counts).  One slab
    # thread, because 2,400 frames on two would add a second slab's
    # buffers to the slope, and the peak of two depends on whether their
    # per-block temporaries overlap in time.
    monkeypatch.setattr(spectral, "_threads", None)  # restored after the test
    spectral._set_threads(1)
    _gl_peak(40, n_iters)  # imports what a call needs
    slope = (_gl_peak(2400, n_iters) - _gl_peak(400, n_iters)) / 2000
    assert slope <= 2 * CFG.hop_size * 4 + 400


def test_gl_keeps_nothing_between_calls():
    # After a warm-up call on another frame count (which imports what a
    # call needs), a call on a frame count no other test uses must leave
    # nothing allocated beyond its input and output; a cached window sum
    # would be 2.5 kB a frame.  The output is a view of the signal array,
    # which holds n_tail + 1 = 4 rows (10 kB) more than it.
    rng = np.random.default_rng(9)
    warm_up = LinearSpectrogram(rng.gamma(0.5, size=(40, CFG.n_bins)))
    griffin_lim(warm_up, GriffinLimConfig(n_iters=1))
    n_frames = 900
    tracemalloc.start()
    try:
        mags = rng.gamma(0.5, size=(n_frames, CFG.n_bins))
        out = griffin_lim(LinearSpectrogram(mags), GriffinLimConfig(n_iters=1))
        kept = tracemalloc.get_traced_memory()[0] - mags.nbytes - out.samples.nbytes
    finally:
        tracemalloc.stop()
    assert kept < 64 * 1024  # measured 25 kB; with the cached window sum, 2,265 kB


def test_gl_limits_output_peak():
    # The float32 signal's peak sets the scale, which is applied in
    # float64 as the samples widen.  A float32 product would land the
    # peak on a float32 neighbour of 0.95, 0.94999999 or 0.95000005,
    # which one bound or the other refuses.
    mags = magnitudes(synth.tone(300.0, 0.5, amp=1.0)).mags
    for loudness in (1.0001, 1.5, 3.0, 40.0, 1e4):
        out = griffin_lim(LinearSpectrogram(mags * loudness), GriffinLimConfig(n_iters=5))
        assert np.max(np.abs(out.samples)) <= 0.95 + 1e-12
        assert np.max(np.abs(out.samples)) > 0.95 - 1e-12  # the limiter acted


def test_gl_holds_magnitudes_at_the_ceiling():
    # Float32 tops out near 3.4e38, and an FFT sums 1,280 values; the
    # loop holds magnitudes up to LinearSpectrogram's ceiling, 2**64.
    mags = np.abs(stft(synth.tone(300.0, 0.5, amp=1.0), CFG).values)
    loud = LinearSpectrogram(np.minimum(mags / mags.max() * 2.0**64, 2.0**64))
    assert loud.mags.max() == 2.0**64
    got = griffin_lim(loud, GriffinLimConfig(n_iters=3))
    assert 0.95 - 1e-12 < np.max(np.abs(got.samples)) <= 0.95 + 1e-12
    assert np.array_equal(got.samples, ref.griffin_lim(loud.mags, CFG, 3, np.float32).samples)


class _CountingPool(spectral.ThreadPoolExecutor):
    slab_counts: list = []

    def map(self, fn, *iterables):
        self.slab_counts.append(len(iterables[0]))
        return super().map(fn, *iterables)


# (frames, threads, n_iters, layout): 2 and 3 frames give a single slab
# and a signal of at most n_fft/2 = 640 samples, whose padding np.pad
# reflects more than once; 4 frames give the first longer signal.
# 31/32/65 frames sit at the 32-frame slab floor of the slab_floor_32
# fixture (the shipped floor leaves every case here in one slab), 301
# frames give each of 2 or 3 threads a slab of about 100 frames, and 64
# and 96 frames end on a 32-frame block edge and 33, 97 and 129 one
# frame past one, in one slab
# or in slabs whose blocks start at the slab's start.  136 frames on 2
# threads and 144 on 4 give slabs of 68 and 36 frames, which end in a
# 4-frame block: 3 of the 7 rows of x_i-1 it reads are the copy saved
# from the next slab.  Odd and even iteration counts leave the last
# signal in the upper half of the signal array from either start.  A
# layout {"block": b} runs the per-frame work in b-frame blocks instead
# of 32, which must not change a byte: at 4 frames, one more than n_tail,
# the rows of every block add the last frames of the block before it,
# which the slab's window carries over.
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
    (126, 2, 3, {"block": 4}),
    (126, 3, 3, {"block": 4}),
    (126, 2, 3, {"block": 12}),
    *[(n, threads, 2, {}) for n in (33, 64, 96, 97, 129) for threads in (1, 2, 3)],
    (97, 2, 2, {"block": 8}),
    *[(n, threads, 2, {"block": 4}) for n in (97, 130) for threads in (2, 3)],
    (4, 2, 3, {}),
    *[(n, 2, 3, {"block": 4}) for n in (3, 4, 21, 22)],
    (70, 2, 2, {"block": 8}),
    (301, 4, 3, {}),
    *[(n, threads, n_iters, {}) for n, threads in ((136, 2), (144, 4)) for n_iters in (1, 2, 3)],
]


@pytest.mark.usefixtures("slab_floor_32")
@pytest.mark.parametrize("n_frames, threads, n_iters, layout", _GL_CASES)
def test_gl_matches_serial_reference(monkeypatch, n_frames, threads, n_iters, layout):
    mags = np.random.default_rng(n_frames).gamma(0.5, size=(n_frames, CFG.n_bins))
    _CountingPool.slab_counts = []
    monkeypatch.setattr(spectral, "ThreadPoolExecutor", _CountingPool)
    monkeypatch.setattr(spectral, "_threads", None)  # restored after the test
    monkeypatch.setattr(vocoder, "_BLOCK", layout.get("block", vocoder._BLOCK))
    spectral._set_threads(threads)
    got = griffin_lim(LinearSpectrogram(mags), GriffinLimConfig(n_iters=n_iters))
    want = ref.griffin_lim(mags, CFG, n_iters, np.float32)
    assert np.array_equal(got.samples, want.samples)
    # The first synthesis and every iteration map over the same slabs; a
    # single slab runs on the calling thread, as does the start's chain.
    slabs = min(threads, n_frames // 32)
    assert _CountingPool.slab_counts == ([slabs] * (n_iters + 1) if slabs > 1 else [])


@pytest.mark.usefixtures("slab_floor_32")
@pytest.mark.parametrize("n_frames, threads", [(3, 1), (70, 2), (144, 4)])
def test_gl_first_iteration_equals_the_spectral_momentum_form(monkeypatch, n_frames, threads):
    # The first iteration has no signal before it, so the momentum taken
    # in the signal domain leaves it as the spectral form did: the output
    # at one iteration keeps its bytes.
    mags = np.random.default_rng(n_frames).gamma(0.5, size=(n_frames, CFG.n_bins))
    monkeypatch.setattr(spectral, "_threads", None)  # restored after the test
    spectral._set_threads(threads)
    got = griffin_lim(LinearSpectrogram(mags), GriffinLimConfig(n_iters=1))
    want = ref.griffin_lim(mags, CFG, 1, np.float32, domain="spectral")
    assert np.array_equal(got.samples, want.samples)


def test_gl_signal_and_spectral_momentum_agree_in_double_precision():
    # STFT(x_i - b * x_i-1) = STFT(x_i) - b * STFT(x_i-1): the identity the
    # signal-domain momentum rests on.  In float64 the two loops differ
    # only in rounding after 10 iterations; measured 2e-13 relative.
    mags = magnitudes(synth.voiced(1.0, 170, 260, seed=4, vibrato=5.0, noise_db=-35.0)).mags
    signal = ref.griffin_lim(mags, CFG, 10).samples
    spectral_form = ref.griffin_lim(mags, CFG, 10, domain="spectral").samples
    assert np.linalg.norm(signal - spectral_form) <= 1e-9 * np.linalg.norm(spectral_form)


@pytest.mark.usefixtures("slab_floor_32")
def test_gl_slabs_under_thread_pressure(monkeypatch):
    # More threads than cores, switching every microsecond: a slab that
    # wrote outside its own rows would change the output bytes.
    mags = np.random.default_rng(7).gamma(0.5, size=(301, CFG.n_bins))
    monkeypatch.setattr(spectral, "_threads", None)
    spectral._set_threads(8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = griffin_lim(LinearSpectrogram(mags), GriffinLimConfig(n_iters=4))
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(got.samples, ref.griffin_lim(mags, CFG, 4, np.float32).samples)


def test_gl_default_threads_match_serial_reference():
    mags = magnitudes(synth.voiced(1.0, 170, 260, seed=3)).mags
    got = griffin_lim(LinearSpectrogram(mags), GriffinLimConfig(n_iters=5))
    assert np.array_equal(got.samples, ref.griffin_lim(mags, CFG, 5, np.float32).samples)


# Three glides with vibrato and a hiss, 8 s each.
_YARDSTICK_SIGNALS = {
    "glide_up": lambda: synth.voiced(8.0, 140, 230, seed=21, vibrato=4.5, noise_db=-40.0),
    "glide_down": lambda: synth.voiced(8.0, 260, 170, seed=22, vibrato=5.5, noise_db=-40.0),
    "glide_high": lambda: synth.voiced(8.0, 220, 320, seed=23, vibrato=5.0, noise_db=-35.0),
    "fricative": lambda: synth.fricative(8.0, seed=24),
}


@pytest.mark.parametrize("name", sorted(_YARDSTICK_SIGNALS))
def test_gl_single_precision_meets_the_double_precision_yardstick(name):
    # The library runs Griffin-Lim in float32; the serial reference in
    # float64 is the yardstick.  Single precision must cost nothing
    # measurable: spectral convergence against the NNLS magnitudes (with
    # the least-squares gain, which removes the limiter) at most 0.002
    # above the yardstick's, and the log-mel L1 against the input mel
    # within 1% of it.  Measured equal to 4 digits on both.
    m = mel_spectrogram(_YARDSTICK_SIGNALS[name](), CFG)
    target = mel_to_linear(m, mel_filterbank(CFG))

    def scores(out):
        got = np.abs(stft(out, CFG).values)
        gain = np.vdot(target.mags, got) / np.vdot(got, got)
        sc = np.linalg.norm(target.mags - gain * got) / np.linalg.norm(target.mags)
        return sc, np.mean(np.abs(mel_spectrogram(out, CFG).logmels - m.logmels))

    sc, l1 = scores(griffin_lim(target, GriffinLimConfig()))
    sc_yard, l1_yard = scores(ref.griffin_lim(target.mags, CFG, GriffinLimConfig().n_iters))
    assert sc <= sc_yard + 0.002
    assert abs(l1 - l1_yard) <= 0.01 * l1_yard


def test_thread_count_rejects_zero():
    with pytest.raises(ValueError):
        spectral._set_threads(0)


@pytest.mark.usefixtures("slab_floor_32")
@pytest.mark.parametrize("threads", [1, 2, 3, 4])
def test_slabs_cover_the_rows_with_cuts_on_4_row_groups(monkeypatch, threads):
    monkeypatch.setattr(spectral, "_threads", None)  # restored after the test
    spectral._set_threads(threads)
    for n_rows in range(401):
        slabs = spectral._slabs(n_rows)
        assert len(slabs) == max(1, min(threads, n_rows // 32))
        assert slabs[0].start == 0 and slabs[-1].stop == n_rows
        for before, after in zip(slabs, slabs[1:]):
            assert before.stop == after.start and after.start % 4 == 0


@pytest.mark.usefixtures("slab_floor_32")
def test_slabs_of_a_cut_are_longer_than_n_tail(monkeypatch):
    # griffin_lim's finish adds only the slab just before to a slab's
    # first n_tail = 3 rows; that holds while every slab of a cut into
    # several has more than 3 frames.
    n_tail = CFG.n_fft // CFG.hop_size - 1
    monkeypatch.setattr(spectral, "_threads", None)  # restored after the test
    for threads in range(1, 65):
        spectral._set_threads(threads)
        for n_rows in range(1, 2001):
            slabs = spectral._slabs(n_rows)
            if len(slabs) > 1:
                assert min(s.stop - s.start for s in slabs) > n_tail


class _SizedPool(spectral.ThreadPoolExecutor):
    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)
        super().__init__(max_workers)


@pytest.mark.usefixtures("slab_floor_32")
@pytest.mark.parametrize("threads", [1, 2, 3, 4])
@pytest.mark.parametrize("block", [32, 64])
def test_block_pool_visits_each_row_once_in_its_slabs_buffers(monkeypatch, threads, block):
    monkeypatch.setattr(spectral, "_threads", None)  # restored after the test
    monkeypatch.setattr(spectral, "ThreadPoolExecutor", _SizedPool)
    spectral._set_threads(threads)
    for n_rows in range(201):
        slabs = spectral._slabs(n_rows)
        calls = []
        _SizedPool.sizes = []
        pool = spectral._block_pool(n_rows, block, (3, np.float64), (5, np.complex128))
        with pool as (run, yielded):
            run(lambda rows, i, *buffers: calls.append((rows, i, buffers)))
        # The runner's slabs are _slabs', one pool thread each.
        assert yielded == slabs and _SizedPool.sizes == [len(slabs)]
        visits = np.zeros(n_rows, dtype=int)
        owners = {}
        for rows, i, buffers in calls:
            visits[rows] += 1
            (slab,) = [j for j, s in enumerate(slabs) if s.start <= rows.start < s.stop]
            assert i == slab
            n = rows.stop - rows.start
            assert rows.stop <= slabs[slab].stop and 0 < n <= block
            assert (rows.start - slabs[slab].start) % block == 0
            assert [(b.shape, b.dtype) for b in buffers] == [
                ((n, 3), np.float64),
                ((n, 5), np.complex128),
            ]
            # Each slab's buffers are no longer than a block or the longest slab.
            longest = max(s.stop - s.start for s in slabs)
            assert all(b.base.shape[1] == min(block, longest) for b in buffers)
            assert not np.shares_memory(*buffers)
            owners.setdefault(slab, []).extend(buffers)
        assert (visits == 1).all()
        for slab, mine in owners.items():
            for other, theirs in owners.items():
                if other != slab:
                    assert not any(np.shares_memory(a, b) for a in mine for b in theirs)


@pytest.mark.parametrize("threads", [2, 32])
def test_short_inputs_run_on_the_calling_thread(monkeypatch, threads):
    # A second slab pays only from 2 x _MIN_SLAB_ROWS rows (see spectral);
    # below that every stage runs on the calling thread, and a longer
    # input gets at most n_rows // _MIN_SLAB_ROWS slabs, whatever the
    # thread count.
    floor = spectral._MIN_SLAB_ROWS
    monkeypatch.setattr(spectral, "_threads", None)  # restored after the test
    spectral._set_threads(threads)
    for n_rows in range(1, 20 * floor):
        n_slabs = len(spectral._slabs(n_rows))
        assert n_slabs == (1 if n_rows < 2 * floor else min(threads, n_rows // floor))
    # The last frame count under 2 x floor whose rows are whole 4-row groups.
    n_frames = 2 * floor - 4
    w = Waveform(np.random.default_rng(1).standard_normal((n_frames - 1) * CFG.hop_size), 16000)
    _CountingPool.slab_counts = []
    monkeypatch.setattr(spectral, "ThreadPoolExecutor", _CountingPool)
    m = mel_spectrogram(w, CFG)
    assert m.n_frames == n_frames
    reconstruct_from_mel(m, GriffinLimConfig(n_iters=1))
    assert _CountingPool.slab_counts == []


@pytest.mark.parametrize("n_frames, threads", [(301, 2), (767, 3), (768, 2), (1200, 3)])
def test_gl_start_computes_turns_once_before_the_last_slab(monkeypatch, n_frames, threads):
    # Each block of the first synthesis computes its frames' turns; the
    # calling thread computes them again only for the frames before the
    # last slab, whose first phase it chains.  So at one slab _peak_turns
    # sees each frame once.
    seen = []

    def counting(mags, step, out):
        seen.append(len(mags))
        peak_turns(mags, step, out)

    peak_turns = vocoder._peak_turns
    monkeypatch.setattr(vocoder, "_peak_turns", counting)
    monkeypatch.setattr(spectral, "_threads", None)  # restored after the test
    spectral._set_threads(threads)
    mags = np.random.default_rng(n_frames).gamma(0.5, size=(n_frames, CFG.n_bins))
    griffin_lim(LinearSpectrogram(mags), GriffinLimConfig(n_iters=1))
    slabs = spectral._slabs(n_frames)
    assert len(slabs) == (1 if n_frames < 768 else min(threads, n_frames // 384))
    assert sum(seen) == n_frames + slabs[-1].start


# ---------------------------------------------------------------------------
# reconstruct_from_mel


# 1, 3, 63, 65, 127, 129 and 257 frames end in a padded 4-row group;
# 63 to 65 frames sit at Griffin-Lim's second 32-frame block edge, 127 to
# 129 at NNLS's 128-frame block edge, and 257 at its second; 68 and 100
# frames give slabs shorter than an NNLS block; 301 frames give a slab
# per thread of several blocks.
@pytest.mark.usefixtures("slab_floor_32")
@pytest.mark.parametrize("n_frames", [1, 3, 63, 64, 65, 68, 100, 127, 128, 129, 257, 301])
def test_nnls_and_reconstruction_bytes_do_not_depend_on_slab_threads(
    monkeypatch, n_frames
):
    rng = np.random.default_rng(n_frames)
    m = MelSpectrogram(np.log(rng.gamma(0.5, size=(n_frames, CFG.n_mels)) + 1e-5), CFG)
    fb = mel_filterbank(CFG)
    monkeypatch.setattr(spectral, "ThreadPoolExecutor", _CountingPool)
    monkeypatch.setattr(spectral, "_threads", None)  # restored after the test
    mags, waves = [], []
    for threads in (1, 2, 3):
        spectral._set_threads(threads)
        _CountingPool.slab_counts = []
        mags.append(mel_to_linear(m, fb).mags)
        slabs = min(threads, -(-n_frames // 4) * 4 // 32)
        assert _CountingPool.slab_counts == ([slabs] if slabs > 1 else [])
        waves.append(reconstruct_from_mel(m, GriffinLimConfig(n_iters=2)).samples)
    for got in mags[1:]:
        assert np.array_equal(got, mags[0])
    for got in waves[1:]:
        assert np.array_equal(got, waves[0])
    # Zero frames padding the last 4-row group solve to 0, so they leave
    # no NaN, and each frame is solved on its own.
    assert np.isfinite(mags[0]).all() and mags[0].min() >= 0.0
    last = MelSpectrogram(m.logmels[-1:], CFG)
    assert np.array_equal(mel_to_linear(last, fb).mags, mags[0][-1:])


@pytest.mark.usefixtures("slab_floor_32")
def test_nnls_slabs_under_thread_pressure(monkeypatch):
    # More threads than cores, switching every microsecond: a slab that
    # wrote outside its own blocks would change the output bytes.
    rng = np.random.default_rng(5)
    m = MelSpectrogram(np.log(rng.gamma(0.5, size=(301, CFG.n_mels)) + 1e-5), CFG)
    monkeypatch.setattr(spectral, "_threads", None)
    spectral._set_threads(1)
    want = mel_to_linear(m, mel_filterbank(CFG)).mags
    spectral._set_threads(8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = mel_to_linear(m, mel_filterbank(CFG)).mags
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(got, want)


@pytest.mark.usefixtures("slab_floor_32")
def test_no_slab_thread_outlives_a_call(monkeypatch):
    # Pipeline's worker processes fork from a process that has run
    # these calls; a slab thread still alive would be copied half-way.
    rng = np.random.default_rng(11)
    m = MelSpectrogram(np.log(rng.gamma(0.5, size=(301, CFG.n_mels)) + 1e-5), CFG)
    s = LinearSpectrogram(rng.gamma(0.5, size=(301, CFG.n_bins)))
    monkeypatch.setattr(spectral, "_threads", None)
    spectral._set_threads(2)
    before = threading.active_count()
    mel_to_linear(m, mel_filterbank(CFG))
    assert threading.active_count() == before
    griffin_lim(s, GriffinLimConfig(n_iters=2))
    assert threading.active_count() == before
    reconstruct_from_mel(m, GriffinLimConfig(n_iters=2))
    assert threading.active_count() == before


def test_reconstruct_silence_is_quiet():
    m = mel_spectrogram(Waveform(np.zeros(16000), 16000), CFG)
    out = reconstruct_from_mel(m, GriffinLimConfig())
    assert len(out) == 16000  # (51 - 1) * 320
    assert np.sqrt(np.mean(out.samples**2)) < 1e-3


def test_reconstruct_tone_keeps_pitch():
    m = mel_spectrogram(synth.tone(220.0, 1.0), CFG)
    out = reconstruct_from_mel(m, GriffinLimConfig())
    assert abs(median_f0(out) - 220.0) <= 5.0


def _frames_at_the_mel_ceiling() -> np.ndarray:
    """Log-mel frames that reach the mel ceiling: every band, each run of 1
    to 3 bands over the floor, and exponential fall-offs from each band."""
    top, floor = math.log(CFG.mel_ceiling), math.log(CFG.log_floor)
    bands = np.arange(CFG.n_mels)
    frames = [np.full(CFG.n_mels, top)]
    for width in (1, 2, 3):
        for start in range(CFG.n_mels - width + 1):
            frames.append(np.where((bands >= start) & (bands < start + width), top, floor))
    for slope in (0.05, 0.5, 2.0, 8.0):  # log-mel per band
        for peak in bands:
            frames.append(np.maximum(top - slope * np.abs(bands - peak), floor))
    return np.array(frames)


@pytest.mark.parametrize("order", ["in turn", "shuffled"])
def test_reconstruct_holds_log_mels_at_the_ceiling(order):
    # NNLS can solve to more than its target: at the mel ceiling, 2**48,
    # every magnitude stays within LinearSpectrogram's 2**64, and
    # Griffin-Lim's float32 loop stays finite, with no RuntimeWarning.
    frames = _frames_at_the_mel_ceiling()
    if order == "shuffled":
        frames = frames[np.random.default_rng(5).permutation(len(frames))]
    s = mel_to_linear(MelSpectrogram(frames, CFG), mel_filterbank(CFG))
    out = griffin_lim(s, GriffinLimConfig(n_iters=2))
    assert np.isfinite(out.samples).all()
    assert 0.0 < np.max(np.abs(out.samples)) <= 0.95 + 1e-12


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


def test_external_vocoder_timeout(monkeypatch):
    m = mel_spectrogram(synth.tone(220.0, 0.3), CFG)
    cmd = f"{sys.executable} -c 'import time; time.sleep(30)' {{mel}} {{wav}}"
    monkeypatch.setattr(vocoder, "EXTERNAL_VOCODER_TIMEOUT", 0.5)
    with pytest.raises(VocoderProcessFailure, match="timed out"):
        external_vocoder(m, cmd)


def test_external_vocoder_requires_placeholders():
    m = mel_spectrogram(synth.tone(220.0, 0.3), CFG)
    with pytest.raises(ValueError):
        external_vocoder(m, "vocoder --in foo --out bar")
    with pytest.raises(ValueError, match="No closing quotation"):
        external_vocoder(m, f"{sys.executable} '{{mel}} {{wav}}")
