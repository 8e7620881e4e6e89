"""End-to-end checks for the whole toolkit, one test per shipping gate.

Each test prints a PASS/FAIL verdict line via the conftest hook.  These
are deliberately coarse: they exercise the full public surface the way a
user would, with tolerances fixed up front.
"""

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import synth
from sraug.audio_io import Waveform, read_wav, write_wav
from sraug.pipeline import MANIFEST_NAME, PipelineConfig, run
from sraug.pitch_eval import PitchConfig, f0_pcc, pearson, yin_f0
from sraug.spectral import MelSpectrogram, SpectralConfig, istft, mel_spectrogram, stft
from sraug.sr_ops import RatioRange, ResizeSpec, vertical_sr
from sraug.vc_losses import DiagGaussian, generator_total, kl_diag_gaussian
from sraug.vocoder import GriffinLimConfig, reconstruct_from_mel

SCFG = SpectralConfig()
PCFG = PitchConfig()
FLOOR = math.log(SCFG.log_floor)

RATIOS = (0.85, 0.95, 1.0, 1.05, 1.15)


def median_f0(w: Waveform) -> float:
    track = yin_f0(w, PCFG)
    voiced = track.f0[track.voiced]
    assert voiced.size > 0, "no voiced frames found"
    return float(np.median(voiced))


def test_1_pitch_direction():
    # Squeezing the band axis lowers perceived pitch, stretching raises
    # it, and ratio 1.0 leaves it alone -- across three vowel-like tones.
    start = time.perf_counter()
    for f0 in (150.0, 200.0, 250.0):
        source = synth.voiced(1.0, f0, f0, seed=3)
        mel = mel_spectrogram(source, SCFG)
        medians = []
        for ratio in RATIOS:
            resized = vertical_sr(mel, ResizeSpec(ratio=ratio, seed=5))
            rebuilt = reconstruct_from_mel(resized, GriffinLimConfig())
            medians.append(median_f0(rebuilt))
        assert all(a < b for a, b in zip(medians, medians[1:])), (f0, medians)
        identity_median = medians[RATIOS.index(1.0)]
        assert abs(identity_median - f0) <= 5.0, (f0, identity_median)
    assert time.perf_counter() - start < 60.0


def test_2_vertical_shape():
    rng = np.random.default_rng(2025)
    for _ in range(100):
        t = int(rng.integers(3, 61))
        mel = MelSpectrogram(FLOOR + rng.uniform(0.0, 8.0, (t, SCFG.n_mels)), SCFG)
        ratio = float(rng.uniform(0.5, 2.0))
        resized = vertical_sr(mel, ResizeSpec(ratio=ratio, seed=int(rng.integers(1 << 30))))
        assert resized.logmels.shape == mel.logmels.shape
        identity = vertical_sr(mel, ResizeSpec(ratio=1.0, seed=int(rng.integers(1 << 30))))
        assert np.array_equal(identity.logmels, mel.logmels)


def test_3_stft_round_trip():
    rng = np.random.default_rng(7)
    w = Waveform(rng.uniform(-0.9, 0.9, 2 * SCFG.sample_rate), SCFG.sample_rate)
    first = istft(stft(w, SCFG))
    second = istft(stft(w, SCFG))
    reference = w.samples[: len(first)]
    noise = first.samples - reference
    snr_db = 10.0 * np.log10(np.sum(reference**2) / max(np.sum(noise**2), 1e-300))
    assert snr_db > 60.0, snr_db
    assert np.array_equal(first.samples, second.samples)


def test_4_loss_closed_forms():
    std_normal = DiagGaussian([0.0], [0.0])
    assert abs(kl_diag_gaussian(std_normal, std_normal) - 0.0) <= 1e-6
    assert abs(kl_diag_gaussian(std_normal, DiagGaussian([1.0], [0.0])) - 0.5) <= 1e-6
    wide = DiagGaussian([0.0], [math.log(2.0)])
    assert abs(kl_diag_gaussian(std_normal, wide) - 0.318147) <= 1e-6

    assert generator_total(1.0, 2.0, 3.0, 4.0) == 10.0

    rng = np.random.default_rng(99)
    for _ in range(10_000):
        n = int(rng.integers(1, 9))
        q = DiagGaussian(rng.uniform(-3, 3, n), rng.uniform(-1.5, 1.5, n))
        p = DiagGaussian(rng.uniform(-3, 3, n), rng.uniform(-1.5, 1.5, n))
        assert kl_diag_gaussian(q, p) >= 0.0


def test_5_f0_pcc_metric():
    w = synth.voiced(1.2, 180.0, 260.0, seed=4, vibrato=5.0)
    assert abs(f0_pcc(w, w, PCFG) - 1.0) <= 1e-6

    glide = synth.voiced(1.5, 150.0, 300.0, seed=2)
    shifted = synth.voiced(1.5, 180.0, 360.0, seed=3)  # same contour, 1.2x higher
    assert f0_pcc(glide, shifted, PCFG) > 0.99

    assert abs(pearson(np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 4.0])) - 0.9820) <= 1e-4


def test_6_identity_ratio_fidelity(mini_corpus, tmp_path):
    cfg = PipelineConfig(
        input=str(mini_corpus),
        output_dir=str(tmp_path / "out"),
        ratio_range=RatioRange(1.0, 1.0),
        master_seed=9,
    )
    manifest = run(cfg)
    assert manifest.failures == []
    assert len(manifest.records) == 10
    for record in manifest.records:
        value = f0_pcc(
            read_wav(record["source_path"]), read_wav(record["output_path"]), PCFG
        )
        assert value > 0.95, (record["source_path"], value)


def test_7_cli_determinism(mini_corpus, tmp_path):
    out = tmp_path / "out"
    args = [
        sys.executable,
        "-m",
        "sraug.cli",
        "augment",
        "--in",
        str(mini_corpus),
        "--out",
        str(out),
        "--variants",
        "1",
        "--seed",
        "42",
    ]

    def one_run():
        proc = subprocess.run(args, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        shutil.rmtree(out)
        return files

    first = one_run()
    second = one_run()
    assert MANIFEST_NAME in first
    assert set(first) == set(second)
    for name in first:
        assert first[name] == second[name], f"{name} differs between runs"


def test_8_throughput(tmp_path):
    # A minute of audio must augment end-to-end in under half a minute.
    src = tmp_path / "in"
    src.mkdir()
    write_wav(src / "long.wav", synth.voiced(60.0, 160.0, 240.0, seed=12, vibrato=4.0))
    cfg = PipelineConfig(input=str(src), output_dir=str(tmp_path / "out"), master_seed=8)
    start = time.perf_counter()
    manifest = run(cfg, jobs=1)
    elapsed = time.perf_counter() - start
    assert manifest.failures == []
    assert len(manifest.records) == 1
    assert elapsed < 30.0, f"took {elapsed:.1f} s"


def test_9_throughput_48k(tmp_path):
    # Same budget for a minute of 48 kHz audio, which is resampled to
    # 16 kHz before analysis.
    src = tmp_path / "in"
    src.mkdir()
    long48k = synth.voiced(60.0, 160.0, 240.0, seed=13, sr=48000, vibrato=4.0)
    write_wav(src / "long48k.wav", long48k)
    cfg = PipelineConfig(input=str(src), output_dir=str(tmp_path / "out"), master_seed=9)
    start = time.perf_counter()
    manifest = run(cfg, jobs=1)
    elapsed = time.perf_counter() - start
    assert manifest.failures == []
    assert len(manifest.records) == 1
    assert elapsed < 30.0, f"took {elapsed:.1f} s"
