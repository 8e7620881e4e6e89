"""Batch pipeline: seed derivation, corpus discovery, manifest output,
failure isolation, parallel/serial equivalence, and the CLI surface."""

import errno
import json
import multiprocessing
import os
import shutil
import struct
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

import synth
from sraug import audio_io, pipeline, spectral, vocoder
from sraug.audio_io import Waveform, read_wav, resample, write_wav
from sraug.cli import _AUGMENT_SETTINGS, _COMMANDS, _read_config_file, main as cli_main
from sraug.errors import EmptyCorpus, IoFailure, OutputCollision, StageFailure
from sraug.pipeline import (
    MANIFEST_NAME,
    PipelineConfig,
    augment_file,
    derive_seed,
    discover_wavs,
    run,
)
from sraug.pitch_eval import PitchConfig, write_f0_csv, yin_f0
from sraug.spectral import SpectralConfig, mel_spectrogram, write_melf
from sraug.sr_ops import HORIZONTAL, VERTICAL, RatioRange, resize_axis

from test_audio_io import build_wav

MANIFEST_FIELDS = [
    "source_path",
    "output_path",
    "ratio",
    "axis",
    "seed",
    "n_frames_in",
    "n_frames_out",
    "duration_sec_in",
    "duration_sec_out",
]


def small_corpus(dirpath: Path, n=3) -> list[Path]:
    """A few short voiced clips; enough frames to make resizing meaningful."""
    dirpath.mkdir(parents=True, exist_ok=True)
    paths = []
    for i in range(n):
        w = synth.voiced(0.6, 160 + 30 * i, 200 + 20 * i, seed=40 + i, vibrato=4.0)
        p = dirpath / f"clip{i}.wav"
        write_wav(p, w)
        paths.append(p)
    return paths


def read_manifest(out_dir: Path) -> list[dict]:
    lines = (out_dir / MANIFEST_NAME).read_text().splitlines()
    return [json.loads(line) for line in lines]


# ---------------------------------------------------------------------------
# derive_seed


def test_derive_seed_frozen_values():
    assert derive_seed(123, 0, 0) == 4936543905401210473
    assert derive_seed(123, 0, 1) == 8035921698895546711
    assert derive_seed(123, 7, 3) == 578784165104145737
    assert derive_seed(123, 2**40, 12) == 7350698352616924771
    assert derive_seed(0, 0, 0) == 3887310533519206127


def test_derive_seed_range_and_uniqueness():
    seen = set()
    for master in (0, 1, 123, 2**63):
        for item in range(6):
            for variant in range(4):
                s = derive_seed(master, item, variant)
                assert 0 <= s < 2**63
                seen.add(s)
    assert len(seen) == 4 * 6 * 4  # no collisions across the grid


# ---------------------------------------------------------------------------
# PipelineConfig


def test_config_rejects_output_into_input_dir(tmp_path):
    src = tmp_path / "corpus"
    src.mkdir()
    with pytest.raises(ValueError):
        PipelineConfig(input=str(src), output_dir=str(src))
    # The corpus is searched recursively: a second run would augment the
    # outputs of the first one.
    for nested in (src / "aug", src / "aug" / "deeper", src / "aug" / ".."):
        with pytest.raises(ValueError):
            PipelineConfig(input=str(src), output_dir=str(nested))
    PipelineConfig(input=str(src), output_dir=str(tmp_path / "corpus_aug"))


def test_config_rejects_output_beside_input_file(tmp_path):
    wav = tmp_path / "a.wav"
    with pytest.raises(ValueError):
        PipelineConfig(input=str(wav), output_dir=str(tmp_path))


def test_config_validation(tmp_path):
    src = tmp_path / "in"
    out = tmp_path / "out"
    src.mkdir()
    with pytest.raises(ValueError):
        PipelineConfig(input=str(src), output_dir=str(out), variants_per_file=0)
    with pytest.raises(ValueError):
        PipelineConfig(input=str(src), output_dir=str(out), axis="diagonal")
    with pytest.raises(ValueError):
        PipelineConfig(input=str(src), output_dir=str(out), master_seed=-1)
    with pytest.raises(ValueError):
        PipelineConfig(input=str(src), output_dir=str(out), pad_noise_std=-0.1)
    with pytest.raises(ValueError, match="pad_noise_std"):
        PipelineConfig(input=str(src), output_dir=str(out), pad_noise_std="0.1")
    # Integer settings reject a float when the config is built.
    with pytest.raises(ValueError):
        PipelineConfig(input=str(src), output_dir=str(out), master_seed=1.5)
    with pytest.raises(ValueError):
        PipelineConfig(input=str(src), output_dir=str(out), variants_per_file=1.5)
    # No vocoder command, given as None or as an empty string, runs Griffin-Lim.
    for griffin_lim in (None, ""):
        PipelineConfig(input=str(src), output_dir=str(out), vocoder_cmd=griffin_lim)


# No placeholder, one placeholder, an unclosed quote, an escape at the end.
_BAD_VOCODER_TEMPLATES = ["myvoc", "voc {mel} out.wav", "voc '{mel} {wav}", "voc {mel} {wav} \\"]


@pytest.mark.parametrize("template", _BAD_VOCODER_TEMPLATES)
def test_config_checks_the_vocoder_template(tmp_path, template):
    src = tmp_path / "in"
    src.mkdir()
    with pytest.raises(ValueError, match="vocoder command"):
        PipelineConfig(input=str(src), output_dir=str(tmp_path / "out"), vocoder_cmd=template)


@pytest.mark.parametrize("template", _BAD_VOCODER_TEMPLATES)
@pytest.mark.parametrize("source", ["flag", "config"])
def test_cli_refuses_a_bad_vocoder_template_before_any_work(tmp_path, capsys, template, source):
    src = tmp_path / "in"
    small_corpus(src, n=1)
    out = tmp_path / "out"
    args = ["augment", "--in", str(src), "--out", str(out)]
    if source == "flag":
        args += ["--vocoder-cmd", template]
    else:
        config = tmp_path / "settings.conf"
        config.write_text(f"vocoder_cmd = {template}\n")
        args += ["--config", str(config)]
    assert cli_main(args) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("sraug augment: vocoder command"), err
    assert not out.exists()  # rejected before any work


# ---------------------------------------------------------------------------
# discover_wavs


def test_discover_single_file(tmp_path):
    p = tmp_path / "one.wav"
    write_wav(p, synth.tone(220.0, 0.1))
    assert discover_wavs(p) == [p]


def test_discover_recursive_sorted(tmp_path):
    (tmp_path / "sub").mkdir()
    # The suffix matches in any case.
    names = ["b.wav", "a.wav", "UTT.WAV", "sub/z.wav", "sub/a.wav", "sub/c.Wav"]
    for name in names:
        write_wav(tmp_path / name, synth.tone(220.0, 0.05))
    (tmp_path / "notes.txt").write_text("not audio")
    (tmp_path / "a.wave").write_text("not audio")
    found = discover_wavs(tmp_path)
    assert found == sorted((tmp_path / n for n in names), key=str)


def test_discover_empty_and_missing(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    (empty / "readme.md").write_text("nothing here")
    with pytest.raises(EmptyCorpus):
        discover_wavs(empty)
    with pytest.raises(IoFailure):
        discover_wavs(tmp_path / "nope")


# ---------------------------------------------------------------------------
# augment_file


def test_augment_file_variants_and_naming(tmp_path):
    [wav] = small_corpus(tmp_path / "in", n=1)
    out = tmp_path / "out"
    out.mkdir()
    cfg = PipelineConfig(
        input=str(wav), output_dir=str(out), variants_per_file=3, master_seed=11
    )
    records = augment_file(wav, cfg, item_index=0)
    assert len(records) == 3
    assert len({r["seed"] for r in records}) == 3
    mel = mel_spectrogram(read_wav(wav), cfg.spectral)
    for variant, r in enumerate(records):
        assert r["output_path"] == str(out / f"clip0_sr{r['ratio']:.3f}_{variant}.wav")
        assert Path(r["output_path"]).is_file()
        assert 0.85 <= r["ratio"] <= 1.15
        assert r["axis"] == VERTICAL
        assert r["n_frames_in"] == mel.n_frames
        assert r["n_frames_out"] == mel.n_frames  # vertical keeps the frame count
        assert r["seed"] == derive_seed(11, 0, variant)
        assert r["duration_sec_in"] == pytest.approx(0.6, abs=1e-6)
        assert r["duration_sec_out"] == pytest.approx(
            (mel.n_frames - 1) * cfg.spectral.hop_size / 16000, abs=1e-9
        )


def test_augment_file_read_failure_is_staged(tmp_path):
    bad = tmp_path / "in" / "bad.wav"
    bad.parent.mkdir()
    bad.write_bytes(b"this is not a RIFF container")
    out = tmp_path / "out"
    out.mkdir()
    cfg = PipelineConfig(input=str(bad), output_dir=str(out))
    with pytest.raises(StageFailure) as info:
        augment_file(bad, cfg, item_index=0)
    assert info.value.stage == "read"
    assert str(bad) in str(info.value)


# ---------------------------------------------------------------------------
# run()


def test_run_writes_records_and_manifest(tmp_path):
    small_corpus(tmp_path / "in", n=3)
    out = tmp_path / "out"
    cfg = PipelineConfig(
        input=str(tmp_path / "in"),
        output_dir=str(out),
        variants_per_file=2,
        master_seed=5,
    )
    manifest = run(cfg)
    assert len(manifest.records) == 6
    assert manifest.failures == []
    on_disk = read_manifest(out)
    assert len(on_disk) == 6
    for record in on_disk:
        assert list(record.keys()) == MANIFEST_FIELDS
        assert Path(record["output_path"]).is_file()


def test_run_isolates_corrupt_file(tmp_path):
    src = tmp_path / "in"
    small_corpus(src, n=2)
    (src / "broken.wav").write_bytes(b"\x00" * 100)
    out = tmp_path / "out"
    cfg = PipelineConfig(input=str(src), output_dir=str(out), master_seed=3)
    manifest = run(cfg)
    assert len(manifest.records) == 2  # the healthy files still went through
    assert len(manifest.failures) == 1
    failure = manifest.failures[0]
    assert failure["stage"] == "read"
    assert failure["source_path"].endswith("broken.wav")
    assert (out / MANIFEST_NAME).is_file()


def test_run_isolates_a_rate_too_high_to_resample(tmp_path):
    # At 2^31 - 1 Hz the resampling kernel would have about 17 million
    # taps; at --jobs 1 running out of memory there would end the batch.
    src = tmp_path / "in"
    small_corpus(src, n=1)
    write_wav(src / "huge_rate.wav", Waveform(np.zeros(70_000), 2**31 - 1))
    out = tmp_path / "out"
    cfg = PipelineConfig(
        input=str(src), output_dir=str(out), gl=vocoder.GriffinLimConfig(n_iters=2)
    )
    manifest = run(cfg, jobs=1)
    assert [Path(r["source_path"]).stem for r in manifest.records] == ["clip0"]
    assert Path(manifest.records[0]["output_path"]).is_file()
    [failure] = manifest.failures
    assert failure["stage"] == "resample" and failure["source_path"].endswith("huge_rate.wav")
    assert "2147483647 Hz to 16000 Hz" in failure["error"]


def test_run_is_deterministic(tmp_path):
    src = tmp_path / "in"
    small_corpus(src, n=2)

    def one_run(name):
        out = tmp_path / name
        cfg = PipelineConfig(
            input=str(src), output_dir=str(out), variants_per_file=2, master_seed=77
        )
        run(cfg)
        wavs = {p.name: p.read_bytes() for p in out.glob("*.wav")}
        return wavs, (out / MANIFEST_NAME).read_bytes()

    wavs_a, manifest_a = one_run("out_a")
    wavs_b, manifest_b = one_run("out_b")
    assert wavs_a == wavs_b
    # manifests differ only by output directory name
    assert manifest_a.replace(b"out_a", b"out_b") == manifest_b


def test_run_parallel_matches_serial(tmp_path):
    src = tmp_path / "in"
    small_corpus(src, n=3)

    def one_run(name, jobs):
        out = tmp_path / name
        cfg = PipelineConfig(input=str(src), output_dir=str(out), master_seed=13)
        run(cfg, jobs=jobs)
        return {p.name: p.read_bytes() for p in out.glob("*.wav")}

    assert one_run("serial", 1) == one_run("parallel", 2)


# Pool workers see this process's monkeypatches only when forked.
needs_fork = pytest.mark.skipif(
    multiprocessing.get_context().get_start_method() != "fork",
    reason="pool workers are not forked on this platform",
)


def _report_threads(item):
    path, _, item_index = item
    return [{"source_path": path, "threads": spectral._threads}], None


def _worker_shares(tmp_path, monkeypatch, cpus, files, jobs):
    """The pool sizes and each item's slab threads of a run of ``files`` files."""
    small_corpus(tmp_path / "in", n=files)
    monkeypatch.setattr(pipeline, "available_cpus", lambda: cpus)
    monkeypatch.setattr(pipeline, "_run_item", _report_threads)
    monkeypatch.setattr(pipeline, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "submitted", [])
    cfg = PipelineConfig(input=str(tmp_path / "in"), output_dir=str(tmp_path / "out"))
    manifest = run(cfg, jobs=jobs)
    sizes = {size for size, _ in _RecordingPool.submitted}
    return sizes, [r["threads"] for r in manifest.records]


# A pool starts all its workers at its first item, so there are no more
# workers than files and the CPUs are split over those: 2 files at
# --jobs 3 get 2 workers of 2 threads on 5 CPUs.
@needs_fork
@pytest.mark.parametrize("cpus, jobs, threads", [(5, 2, 2), (5, 3, 2), (1, 2, 1)])
def test_run_gives_workers_their_cpu_share(tmp_path, monkeypatch, cpus, jobs, threads):
    assert _worker_shares(tmp_path, monkeypatch, cpus, 2, jobs) == ({2}, [threads, threads])


@needs_fork
def test_run_gives_a_lone_file_one_worker_with_every_cpu(tmp_path, monkeypatch):
    assert _worker_shares(tmp_path, monkeypatch, 5, 1, 2) == ({1}, [5])


_augment_file = pipeline.augment_file


def _crash_on_clip1(path, cfg, item_index):
    if Path(path).stem == "clip1":
        os._exit(1)
    return _augment_file(path, cfg, item_index)


@needs_fork
def test_run_survives_a_dead_worker(tmp_path, monkeypatch, capsys):
    src = tmp_path / "in"
    small_corpus(src, n=4)
    out = tmp_path / "out"
    monkeypatch.setattr(pipeline, "augment_file", _crash_on_clip1)
    code = cli_main(
        ["augment", "--in", str(src), "--out", str(out), "--jobs", "2", "--gl-iters", "2"]
    )
    assert code == 1
    records = read_manifest(out)
    assert [Path(r["source_path"]).stem for r in records] == ["clip0", "clip2", "clip3"]
    assert sorted(p.name for p in out.glob("*.wav")) == sorted(
        Path(r["output_path"]).name for r in records
    )
    assert "clip1.wav at stage worker" in capsys.readouterr().err


_resize = pipeline.resize
# The seed of clip1's second variant in _fail_second_variant_of_clip1's run.
_CLIP1_VARIANT1 = derive_seed(7, 1, 1)


def _fail_second_variant_of_clip1(mel, spec, rng):
    if spec.seed == _CLIP1_VARIANT1:
        raise ValueError("resize broke")
    return _resize(mel, spec, rng)


@pytest.mark.parametrize("jobs", [1, pytest.param(2, marks=needs_fork)])
def test_a_failed_variant_keeps_the_records_of_those_written(tmp_path, monkeypatch, jobs):
    # clip1's first variant is written before its second fails: the WAV
    # keeps its record, and the file records one failure, at the stage
    # that broke.
    src = tmp_path / "in"
    small_corpus(src, n=3)
    out = tmp_path / "out"
    monkeypatch.setattr(pipeline, "resize", _fail_second_variant_of_clip1)
    cfg = PipelineConfig(
        input=str(src), output_dir=str(out), variants_per_file=2, master_seed=7,
        gl=vocoder.GriffinLimConfig(n_iters=2),
    )
    manifest = run(cfg, jobs=jobs)
    records = read_manifest(out)
    assert records == manifest.records
    assert [(Path(r["source_path"]).stem, r["seed"]) for r in records] == [
        (f"clip{i}", derive_seed(7, i, v)) for i, v in [(0, 0), (0, 1), (1, 0), (2, 0), (2, 1)]
    ]
    assert sorted(p.name for p in out.glob("*.wav")) == sorted(
        Path(r["output_path"]).name for r in records
    )
    [failure] = manifest.failures
    assert failure["stage"] == "resize" and failure["source_path"].endswith("clip1.wav")
    assert failure["error"] == "resize broke"


class _RecordingPool(ProcessPoolExecutor):
    """A process pool that notes (pool size, source stem) for every item."""

    submitted: list = []

    def __init__(self, workers, **kwargs):
        super().__init__(workers, **kwargs)
        self.workers = workers

    def submit(self, fn, item):
        _RecordingPool.submitted.append((self.workers, Path(item[0]).stem))
        return super().submit(fn, item)


@needs_fork
def test_dead_worker_reruns_only_the_items_in_flight(tmp_path, monkeypatch):
    # Eight items for two workers: when clip1 kills its worker, six items
    # are still waiting.  They go on in a fresh two-worker pool; only the
    # (at most two) items in flight run again one at a time.
    small_corpus(tmp_path / "in", n=8)
    monkeypatch.setattr(pipeline, "augment_file", _crash_on_clip1)
    monkeypatch.setattr(pipeline, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "submitted", [])
    cfg = PipelineConfig(
        input=str(tmp_path / "in"), output_dir=str(tmp_path / "out"),
        gl=vocoder.GriffinLimConfig(n_iters=2),
    )
    manifest = run(cfg, jobs=2)
    stems = [Path(r["source_path"]).stem for r in manifest.records]
    assert stems == [f"clip{i}" for i in range(8) if i != 1]
    assert [(Path(f["source_path"]).stem, f["stage"]) for f in manifest.failures] == [
        ("clip1", "worker")
    ]
    one_at_a_time = [stem for workers, stem in _RecordingPool.submitted if workers == 1]
    assert "clip1" in one_at_a_time and len(one_at_a_time) <= 2
    assert sorted(stem for _, stem in _RecordingPool.submitted) == sorted(
        stems + ["clip1"] + one_at_a_time
    )


class _LaunchFailingPool(ProcessPoolExecutor):
    """A process pool whose submit fails as fork does with EAGAIN, from the second pool on."""

    pools = 0

    def __init__(self, workers, **kwargs):
        super().__init__(workers, **kwargs)
        _LaunchFailingPool.pools += 1
        self.launches = _LaunchFailingPool.pools == 1

    def submit(self, fn, item):
        if not self.launches:
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
        return super().submit(fn, item)


@needs_fork
def test_run_writes_the_manifest_when_a_worker_cannot_start(tmp_path, monkeypatch):
    # clip1 kills its worker; the fresh pool for the items left cannot
    # start one.  Every item without a result is a worker failure, no
    # further pool starts, and the manifest is written.
    small_corpus(tmp_path / "in", n=6)
    out = tmp_path / "out"
    monkeypatch.setattr(pipeline, "augment_file", _crash_on_clip1)
    monkeypatch.setattr(pipeline, "ProcessPoolExecutor", _LaunchFailingPool)
    monkeypatch.setattr(_LaunchFailingPool, "pools", 0)
    cfg = PipelineConfig(
        input=str(tmp_path / "in"), output_dir=str(out),
        gl=vocoder.GriffinLimConfig(n_iters=2),
    )
    manifest = run(cfg, jobs=2)
    assert _LaunchFailingPool.pools == 2
    assert read_manifest(out) == manifest.records
    done = [Path(r["source_path"]).stem for r in manifest.records]
    failed = {Path(f["source_path"]).stem: f for f in manifest.failures}
    assert sorted(done + list(failed)) == [f"clip{i}" for i in range(6)]
    assert "clip1" in failed and {f["stage"] for f in failed.values()} == {"worker"}
    launch_error = f"BlockingIOError: [Errno {errno.EAGAIN}] Resource temporarily unavailable"
    assert launch_error in [f["error"] for f in failed.values()]
    assert sorted(p.name for p in out.glob("*.wav")) == sorted(
        Path(r["output_path"]).name for r in manifest.records
    )


def _pool_run(tmp_path, monkeypatch, item_fn, pool):
    """The manifest of a ``--jobs 2`` run of ``item_fn`` over four files in ``pool``s."""
    small_corpus(tmp_path / "in", n=4)
    monkeypatch.setattr(pipeline, "_run_item", item_fn)
    monkeypatch.setattr(pipeline, "ProcessPoolExecutor", pool)
    monkeypatch.setattr(_RecordingPool, "submitted", [])
    cfg = PipelineConfig(input=str(tmp_path / "in"), output_dir=str(tmp_path / "out"))
    manifest = run(cfg, jobs=2)
    assert read_manifest(tmp_path / "out") == manifest.records
    return manifest


def _raise_on_clip1(item):
    if Path(item[0]).stem == "clip1":
        raise RuntimeError("clip1 cannot be augmented")
    return _report_threads(item)


@needs_fork
def test_an_exception_from_a_worker_fails_only_its_item(tmp_path, monkeypatch):
    # The worker lives on: nothing is lost, so no pool of one worker starts.
    manifest = _pool_run(tmp_path, monkeypatch, _raise_on_clip1, _RecordingPool)
    assert [Path(r["source_path"]).stem for r in manifest.records] == ["clip0", "clip2", "clip3"]
    assert [(Path(f["source_path"]).stem, f["stage"], f["error"]) for f in manifest.failures] == [
        ("clip1", "worker", "RuntimeError: clip1 cannot be augmented")
    ]
    assert {workers for workers, _ in _RecordingPool.submitted} == {2}


class _SubmitBreakingPool(_RecordingPool):
    """A recording pool that is found broken at the first submit of clip1."""

    refused: list = []

    def submit(self, fn, item):
        if Path(item[0]).stem == "clip1" and not _SubmitBreakingPool.refused:
            _SubmitBreakingPool.refused.append(self.workers)
            raise BrokenProcessPool("a worker died before clip1 was submitted")
        return super().submit(fn, item)


@needs_fork
def test_a_pool_broken_at_submit_loses_no_item(tmp_path, monkeypatch):
    # clip1 was never started, so it runs in the next two-worker pool.
    monkeypatch.setattr(_SubmitBreakingPool, "refused", [])
    manifest = _pool_run(tmp_path, monkeypatch, _report_threads, _SubmitBreakingPool)
    stems = [f"clip{i}" for i in range(4)]
    assert [Path(r["source_path"]).stem for r in manifest.records] == stems
    assert manifest.failures == [] and _SubmitBreakingPool.refused == [2]
    assert sorted(_RecordingPool.submitted) == [(2, stem) for stem in stems]


def _exit_on_clip1(item):
    if Path(item[0]).stem == "clip1":
        os._exit(1)
    return _report_threads(item)


class _RetryFailingPool(_RecordingPool):
    """A recording pool whose one-worker pools cannot start it, as fork fails with EAGAIN."""

    started: list = []

    def __init__(self, workers, **kwargs):
        super().__init__(workers, **kwargs)
        _RetryFailingPool.started.append(workers)

    def submit(self, fn, item):
        if self.workers == 1:
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
        return super().submit(fn, item)


@needs_fork
def test_a_retry_that_cannot_start_a_worker_fails_the_lost_items(tmp_path, monkeypatch):
    # clip1 kills its worker; the one-at-a-time pass for the items lost
    # cannot start one.  Those items fail with the launch error, and no
    # further pool starts.
    monkeypatch.setattr(_RetryFailingPool, "started", [])
    manifest = _pool_run(tmp_path, monkeypatch, _exit_on_clip1, _RetryFailingPool)
    done = [Path(r["source_path"]).stem for r in manifest.records]
    failed = {Path(f["source_path"]).stem: f for f in manifest.failures}
    assert sorted(done + list(failed)) == [f"clip{i}" for i in range(4)]
    assert "clip1" in failed
    launch_error = f"BlockingIOError: [Errno {errno.EAGAIN}] Resource temporarily unavailable"
    assert {(f["stage"], f["error"]) for f in failed.values()} == {("worker", launch_error)}
    assert _RetryFailingPool.started.count(1) == 1 and _RetryFailingPool.started[-1] == 1


# Run in a child: the fork of its second worker fails with EAGAIN, after
# the first worker has started.
_FAILED_LAUNCH_PROBE = """
import errno, json, os, sys
from sraug.pipeline import PipelineConfig, run
from sraug.vocoder import GriffinLimConfig

fork = os.fork
forks = []

def second_fork_fails():
    forks.append(None)
    if len(forks) == 2:
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
    return fork()

os.fork = second_fork_fails
cfg = PipelineConfig(sys.argv[1], sys.argv[2], gl=GriffinLimConfig(n_iters=2))
print(json.dumps([failure["stage"] for failure in run(cfg, jobs=2).failures]))
"""


@needs_fork
def test_run_exits_when_a_worker_cannot_start(tmp_path):
    # The worker forked before the failed launch waits for work that never
    # comes; unless run stops it, the interpreter waits for it at exit.
    small_corpus(tmp_path / "in", n=4)
    out = tmp_path / "out"
    proc = subprocess.Popen(
        [sys.executable, "-c", _FAILED_LAUNCH_PROBE, str(tmp_path / "in"), str(out)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True,
    )
    try:
        stdout, err = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, 9)  # the child and any worker it left
        proc.communicate()
        pytest.fail("the process did not exit after a failed worker launch")
    assert proc.returncode == 0, err
    stages = json.loads(stdout)
    assert stages and set(stages) == {"worker"}
    assert len(read_manifest(out)) + len(stages) == 4


# Run in a child, which prints its own peak resident memory, VmHWM.  Its
# ru_maxrss would not do: Linux carries the peak of the process that
# started it across exec, and pytest's own peak passes 400 MB in a full run.
_PEAK_RSS_PROBE = """
import sys
from sraug import spectral
from sraug.pipeline import PipelineConfig, run
from sraug.sr_ops import HORIZONTAL, RatioRange
from sraug.vocoder import GriffinLimConfig

# Each slab thread has block buffers of its own, so a fixed thread count
# keeps them out of the slope on a box with many CPUs.
spectral._set_threads(2)
cfg = PipelineConfig(sys.argv[1], sys.argv[2], ratio_range=RatioRange(1.15, 1.15),
                     axis=HORIZONTAL, gl=GriffinLimConfig(n_iters=2))
assert not run(cfg, jobs=1).failures
with open("/proc/self/status") as status:
    print(next(line.split()[1] for line in status if line.startswith("VmHWM:")))  # kB
"""


@pytest.mark.skipif(sys.platform != "linux", reason="reads VmHWM from /proc")
def test_run_peak_memory_grows_at_most_0_48_mb_per_input_second(tmp_path):
    # The slope between a 15 s and a 120 s file, so the interpreter's own
    # baseline cancels out.  Griffin-Lim's arrays over all frames set it:
    # the NNLS solution, which it reads in place, and its one signal
    # array, into which the output widens.  Measured on a 2-core x86-64
    # box: 0.42 MB/s; 0.45 with the resize's blend out of place, and 0.63
    # with that and the complex64 spectrum the momentum once kept.  A
    # float32 copy of the magnitudes or a float64 output of its own would
    # add 0.13 (0.55).  The bound lies between.  Memory does not depend on
    # the iteration count, hence 2.
    peaks = []
    for seconds in (15, 120):
        src = tmp_path / f"in{seconds}"
        src.mkdir()
        write_wav(src / "clip.wav", synth.voiced(float(seconds), 150, 230, seed=3, vibrato=4.0))
        proc = subprocess.run(
            [sys.executable, "-c", _PEAK_RSS_PROBE, str(src), str(tmp_path / f"out{seconds}")],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        peaks.append(int(proc.stdout) / 1024)
    slope = (peaks[1] - peaks[0]) / 105
    assert slope <= 0.48, f"{slope:.3f} MB per input second ({peaks[0]:.1f}, {peaks[1]:.1f} MB)"


@pytest.mark.skipif(sys.platform != "linux", reason="reads VmHWM from /proc")
def test_run_peak_memory_on_48khz_pcm24_stereo(tmp_path):
    # 60 s at 48 kHz, 24-bit stereo, a 17.3 MB file.  Measured on a 2-core
    # x86-64 box: 97 MB, of which read_wav sets 95 (the interpreter's 35,
    # the file, the 23 MB of float64 samples and 4 B a stored sample);
    # the same audio at 16 kHz, 16-bit mono, peaks at 84 MB in
    # Griffin-Lim.  A decoder that held a copy of the data chunk, PCM-24
    # in int32 at 12 B a sample, the scaled samples, the stereo mean and a
    # copy for the Waveform peaked at 224 MB.  The bound leaves room for
    # one more float64 array of the samples (23 MB), and no more.
    from test_audio_io import build_wav

    src = tmp_path / "in"
    src.mkdir()
    left = synth.voiced(60.0, 150, 230, seed=3, vibrato=4.0, sr=48000).samples
    frames = np.stack([left, 0.8 * np.roll(left, 37)], axis=1)
    words = np.round(frames * 2**23).astype("<i4").view(np.uint8).reshape(-1, 4)
    payload = words[:, :3].tobytes()
    del left, frames, words
    (src / "clip.wav").write_bytes(build_wav(payload, channels=2, rate=48000, bits=24))
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS_PROBE, str(src), str(tmp_path / "out")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    peak = int(proc.stdout) / 1024
    assert peak <= 120, f"{peak:.1f} MB"


def _collision_run(tmp_path, names, capsys):
    src = tmp_path / "in"
    for name in names:
        (src / name).parent.mkdir(parents=True, exist_ok=True)
        write_wav(src / name, synth.tone(220.0, 0.2))
    out = tmp_path / "out"
    out.mkdir()
    (out / "utt_sr1.000_0.wav").write_bytes(b"earlier output")
    code = cli_main(
        ["augment", "--in", str(src), "--out", str(out),
         "--ratio-min", "1.0", "--ratio-max", "1.0"]
    )
    assert code == 1
    # Nothing was written or overwritten.
    assert [p.name for p in out.iterdir()] == ["utt_sr1.000_0.wav"]
    assert (out / "utt_sr1.000_0.wav").read_bytes() == b"earlier output"
    err = capsys.readouterr().err
    for name in names:
        assert str(src / name) in err


def test_run_rejects_same_stem_in_two_directories(tmp_path, capsys):
    _collision_run(tmp_path, ["a/utt.wav", "b/utt.wav"], capsys)


def test_run_rejects_stems_differing_in_suffix_case(tmp_path, capsys):
    _collision_run(tmp_path, ["utt.wav", "utt.WAV"], capsys)


def test_collision_is_a_typed_error(tmp_path):
    for name in ("a/utt.wav", "b/utt.wav"):
        (tmp_path / "in" / name).parent.mkdir(parents=True, exist_ok=True)
        write_wav(tmp_path / "in" / name, synth.tone(220.0, 0.2))
    cfg = PipelineConfig(
        input=str(tmp_path / "in"), output_dir=str(tmp_path / "out"),
        ratio_range=RatioRange(1.0, 1.0),
    )
    with pytest.raises(OutputCollision):
        run(cfg)
    assert not (tmp_path / "out").exists()


class _FailingFile:
    """A file object whose writes stop with an error half way through."""

    def __init__(self, fh):
        self._fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def write(self, data):
        self._fh.write(data[: len(data) // 2])
        raise OSError(28, "No space left on device")


_TONE = synth.tone(220.0, 0.5)
# Every writer of the package, keyed by the name of the file it writes.
_WRITERS = {
    "utt.wav": lambda path: write_wav(path, _TONE),
    MANIFEST_NAME: lambda path: pipeline.AugmentManifest(
        records=[{"source_path": "x.wav"}]
    ).write_jsonl(path),
    "utt.melf": lambda path: write_melf(path, mel_spectrogram(_TONE, SpectralConfig())),
    "utt.csv": lambda path: write_f0_csv(path, yin_f0(_TONE, PitchConfig())),
}


@pytest.mark.parametrize("target", list(_WRITERS))
def test_failed_write_leaves_no_file(tmp_path, monkeypatch, target):
    monkeypatch.setattr(
        audio_io, "open", lambda path, mode: _FailingFile(open(path, mode)), raising=False
    )
    with pytest.raises(IoFailure):
        _WRITERS[target](tmp_path / target)
    assert list(tmp_path.iterdir()) == []


def test_interrupted_write_leaves_no_file_and_reraises(tmp_path, monkeypatch):
    class Interrupting(_FailingFile):
        def write(self, data):
            self._fh.write(data[: len(data) // 2])
            raise KeyboardInterrupt

    monkeypatch.setattr(
        audio_io, "open", lambda path, mode: Interrupting(open(path, mode)), raising=False
    )
    with pytest.raises(KeyboardInterrupt):
        write_wav(tmp_path / "utt.wav", _TONE)
    assert list(tmp_path.iterdir()) == []


def test_failed_write_keeps_earlier_file(tmp_path, monkeypatch):
    path = tmp_path / "utt.wav"
    path.write_bytes(b"earlier output")
    monkeypatch.setattr(
        audio_io, "open", lambda path, mode: _FailingFile(open(path, mode)), raising=False
    )
    with pytest.raises(IoFailure):
        write_wav(path, synth.tone(220.0, 0.1))
    assert [p.name for p in tmp_path.iterdir()] == ["utt.wav"]
    assert path.read_bytes() == b"earlier output"


def test_run_horizontal_frame_count(tmp_path):
    src = tmp_path / "in"
    small_corpus(src, n=1)
    out = tmp_path / "out"
    cfg = PipelineConfig(
        input=str(src),
        output_dir=str(out),
        axis=HORIZONTAL,
        ratio_range=RatioRange(0.7, 1.3),
        master_seed=21,
    )
    manifest = run(cfg)
    [record] = manifest.records
    expected = max(1, int(np.floor(record["n_frames_in"] * record["ratio"] + 0.5)))
    assert record["n_frames_out"] == expected
    got = read_wav(record["output_path"])
    assert len(got) == (expected - 1) * cfg.spectral.hop_size


@pytest.mark.parametrize("lo,hi", [(0.85, 0.85), (1.15, 1.15)])
def test_run_vertical_keeps_content_rows_correlated(tmp_path, lo, hi):
    # The surviving band rows of each output should track a plain resize
    # of the source mel: compare against resize_axis on the band axis,
    # over the bottom min(H, H') rows, frame by frame.
    src = tmp_path / "in"
    small_corpus(src, n=2)
    out = tmp_path / "out"
    cfg = PipelineConfig(
        input=str(src),
        output_dir=str(out),
        ratio_range=RatioRange(lo, hi),
        master_seed=31,
    )
    manifest = run(cfg)
    scfg = cfg.spectral
    for record in manifest.records:
        src_mel = mel_spectrogram(read_wav(record["source_path"]), scfg).logmels
        out_mel = mel_spectrogram(read_wav(record["output_path"]), scfg).logmels
        n_bands = scfg.n_mels
        resized_h = int(np.floor(n_bands * record["ratio"] + 0.5))
        expected = resize_axis(src_mel, resized_h, VERTICAL)
        shared = min(n_bands, resized_h)
        corrs = []
        for frame in range(out_mel.shape[0]):
            a = out_mel[frame, :shared]
            b = expected[frame, :shared]
            if np.ptp(a) < 1e-6 or np.ptp(b) < 1e-6:
                continue
            corrs.append(np.corrcoef(a, b)[0, 1])
        assert corrs, "no usable frames"
        assert min(corrs) > 0.8


# ---------------------------------------------------------------------------
# CLI


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "sraug.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


def test_cli_augment_round_trip(tmp_path):
    src = tmp_path / "in"
    small_corpus(src, n=2)
    out = tmp_path / "out"
    proc = run_cli(
        "augment", "--in", str(src), "--out", str(out), "--seed", "4", "--variants", "2"
    )
    assert proc.returncode == 0, proc.stderr
    assert "wrote 4 files" in proc.stdout
    assert (out / MANIFEST_NAME).is_file()
    assert len(list(out.glob("*.wav"))) == 4


_BLAS_PROBE = """
import sys
import numpy as np
from sraug.audio_io import read_wav
from sraug.spectral import (
    MelSpectrogram, SpectralConfig, mel_filterbank, mel_spectrogram, mel_to_linear,
)
cfg = SpectralConfig()
mel = mel_spectrogram(read_wav(sys.argv[1]), cfg)
linear = mel_to_linear(mel, mel_filterbank(cfg))
sys.stdout.buffer.write(mel.logmels.tobytes() + linear.mags.tobytes())
# NNLS with dense 80 x 641 weights, whose tiles are wider than any of
# the filterbank's.
rng = np.random.default_rng(0)
linear = mel_to_linear(MelSpectrogram(mel.logmels[:130], cfg), rng.random((80, cfg.n_bins)))
sys.stdout.buffer.write(linear.mags.tobytes())
"""


def test_output_bytes_do_not_depend_on_blas_threads(tmp_path):
    # OpenBLAS reads its thread count when numpy loads, so each setting
    # needs its own process.
    src = tmp_path / "in"
    src.mkdir()
    write_wav(src / "clip.wav", synth.voiced(6.0, 150, 230, seed=11, vibrato=4.0))
    results = []
    for blas in ("1", "2", "4"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=blas)
        probe = subprocess.run(
            [sys.executable, "-c", _BLAS_PROBE, str(src / "clip.wav")],
            capture_output=True, env=env,
        )
        assert probe.returncode == 0, probe.stderr
        out = tmp_path / f"out{blas}"
        proc = subprocess.run(
            [sys.executable, "-m", "sraug.cli", "augment", "--in", str(src),
             "--out", str(out), "--variants", "2"],
            capture_output=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        wavs = {p.name: p.read_bytes() for p in sorted(out.glob("*.wav"))}
        assert len(wavs) == 2
        results.append((probe.stdout, wavs))
    assert results[0] == results[1] == results[2]


def test_cli_augment_requires_in_and_out(tmp_path):
    proc = run_cli("augment", "--out", str(tmp_path / "out"))
    assert proc.returncode == 2
    assert "--in" in proc.stderr


def test_cli_augment_reports_failures(tmp_path):
    src = tmp_path / "in"
    small_corpus(src, n=1)
    (src / "junk.wav").write_bytes(b"JUNKJUNKJUNK")
    proc = run_cli("augment", "--in", str(src), "--out", str(tmp_path / "out"))
    assert proc.returncode == 1
    assert "FAILED" in proc.stderr
    assert "junk.wav" in proc.stderr


def test_cli_config_file_and_flag_precedence(tmp_path):
    src = tmp_path / "in"
    small_corpus(src, n=1)
    out_cfg = tmp_path / "out_cfg"
    out_flag = tmp_path / "out_flag"
    config = tmp_path / "settings.conf"
    config.write_text(
        "# augmentation settings\n"
        f"in = {src}\n"
        f"out = {out_cfg}\n"
        "seed = 9  # inline comment\n"
        'axis = "vertical"\n'
    )
    proc = run_cli("augment", "--config", str(config))
    assert proc.returncode == 0, proc.stderr
    seeds_cfg = [r["seed"] for r in read_manifest(out_cfg)]
    assert seeds_cfg == [derive_seed(9, 0, 0)]

    # A flag beats the same key from the file.
    proc = run_cli(
        "augment", "--config", str(config), "--out", str(out_flag), "--seed", "10"
    )
    assert proc.returncode == 0, proc.stderr
    seeds_flag = [r["seed"] for r in read_manifest(out_flag)]
    assert seeds_flag == [derive_seed(10, 0, 0)]
    assert seeds_flag != seeds_cfg


def test_cli_config_rejects_unknown_key(tmp_path):
    src = tmp_path / "in"
    small_corpus(src, n=1)
    config = tmp_path / "settings.conf"
    config.write_text(f"in = {src}\nout = {tmp_path / 'out'}\nbogus_key = 1\n")
    proc = run_cli("augment", "--config", str(config))
    assert proc.returncode == 1
    assert "bogus_key" in proc.stderr


@pytest.mark.parametrize(
    "line, value",
    [
        ('in = "take#2"  # quoted', "take#2"),
        ("in = 'take#2'", "take#2"),
        ("in = take  # a trailing comment", "take"),
        ("in = take#2", "take"),
        ("vocoder_cmd = \"voc --tag 'a#b' {mel} {wav}\"  # note", "voc --tag 'a#b' {mel} {wav}"),
        ('vocoder_cmd = "voc --tag a#b {mel} {wav}"', "voc --tag a#b {mel} {wav}"),
        ("in = /data/speaker's corpus  # main", "/data/speaker's corpus"),
        ("in = 'open#quote  # note", "'open"),
        ("# in = take", None),
    ],
)
def test_config_hash_starts_a_comment_only_outside_quotes(tmp_path, line, value):
    config = tmp_path / "settings.conf"
    config.write_text(line + "\n")
    key = line.split("=", 1)[0].strip()
    assert _read_config_file(config) == ({} if value is None else {key: value})


def test_cli_config_input_path_with_hash(tmp_path):
    src = tmp_path / "take#2"
    small_corpus(src, n=1)
    out = tmp_path / "out"
    config = tmp_path / "settings.conf"
    config.write_text(f'in = "{src}"\nout = {out}  # output\ngl_iters = 2\n')
    assert cli_main(["augment", "--config", str(config)]) == 0
    assert len(list(out.glob("*.wav"))) == 1


def test_cli_config_type_error_names_line_and_key(tmp_path):
    config = tmp_path / "settings.conf"
    config.write_text(f"in = {tmp_path / 'in'}\n\njobs = two\n")
    proc = run_cli("augment", "--config", str(config), "--out", str(tmp_path / "out"))
    assert proc.returncode == 1
    assert f"{config}:3: jobs: " in proc.stderr


def test_cli_config_not_utf8_names_the_file(tmp_path):
    config = tmp_path / "settings.conf"
    config.write_bytes(b"\xff\xfein = a\n")
    proc = run_cli("augment", "--config", str(config), "--out", str(tmp_path / "out"))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"sraug augment: {config}: ")
    assert proc.stderr.count("\n") == 1


def test_cli_config_with_utf8_bom(tmp_path):
    # Editors on Windows save UTF-8 with a byte-order mark (EF BB BF).
    src = tmp_path / "in"
    small_corpus(src, n=1)
    out = tmp_path / "out"
    config = tmp_path / "settings.conf"
    config.write_bytes(f"in = {src}\nout = {out}\ngl_iters = 2\n".encode("utf-8-sig"))
    assert cli_main(["augment", "--config", str(config)]) == 0
    assert len(list(out.glob("*.wav"))) == 1


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_cli_rejects_jobs_below_one(tmp_path, jobs):
    src = tmp_path / "in"
    small_corpus(src, n=1)
    out = tmp_path / "out"
    proc = run_cli("augment", "--in", str(src), "--out", str(out), "--jobs", jobs)
    assert proc.returncode == 1
    assert "jobs" in proc.stderr
    assert not out.exists()  # rejected before any work
    with pytest.raises(ValueError, match="jobs"):
        run(PipelineConfig(input=src, output_dir=out), jobs=1.5)
    assert not out.exists()


def test_cli_rejects_unknown_axis(tmp_path):
    src = tmp_path / "in"
    small_corpus(src, n=1)
    proc = run_cli(
        "augment", "--in", str(src), "--out", str(tmp_path / "out"), "--axis", "diagonal"
    )
    assert proc.returncode == 1
    assert "axis" in proc.stderr


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("noise_std", ["nan", "inf"])
def test_cli_rejects_nonfinite_noise_std(tmp_path, noise_std, jobs):
    src = tmp_path / "in"
    small_corpus(src, n=1)
    out = tmp_path / "out"
    proc = run_cli(
        "augment", "--in", str(src), "--out", str(out), "--ratio-max", "0.9",
        "--noise-std", noise_std, "--jobs", jobs,
    )
    assert proc.returncode == 1
    assert "pad_noise_std" in proc.stderr
    assert not out.exists()  # rejected before any work


# A non-default value for each augment setting; in, out, vocoder_cmd and
# jobs are covered elsewhere.
_SETTING_VALUES = {
    "ratio_min": "0.9",
    "ratio_max": "1.1",
    "variants": "2",
    "axis": HORIZONTAL,
    "seed": "7",
    "noise_std": "0.5",
    "gl_iters": "3",
}
# Given as flags in every run of the table test unless under test: few
# Griffin-Lim iterations for speed, and ratios below 1 so that the
# padding noise (noise_std) reaches the output.
_TABLE_TEST_FLAGS = {"gl_iters": "2", "ratio_max": "0.95"}


def _flag(key):
    return "--" + key.replace("_", "-")


def test_cli_augment_help_lists_every_setting():
    proc = run_cli("augment", "--help")
    assert proc.returncode == 0
    for key in _AUGMENT_SETTINGS:
        assert _flag(key) in proc.stdout


def test_setting_values_cover_the_table():
    assert set(_SETTING_VALUES) == set(_AUGMENT_SETTINGS) - {"in", "out", "vocoder_cmd", "jobs"}


@pytest.mark.parametrize("key", sorted(_SETTING_VALUES))
def test_cli_flag_and_config_file_agree(tmp_path, key):
    # The same value given as --key and as `key = value` in a settings
    # file gives byte-identical output directories, and not the output of
    # the default value.
    src = tmp_path / "in"
    small_corpus(src, n=1)
    out = tmp_path / "out"
    value = _SETTING_VALUES[key]
    base = ["augment", "--in", str(src), "--out", str(out)]
    for other, other_value in _TABLE_TEST_FLAGS.items():
        if other != key:
            base += [_flag(other), other_value]
    config = tmp_path / "settings.conf"
    config.write_text(f"{key} = {value}\n")

    def one_run(*extra):
        assert cli_main([*base, *extra]) == 0
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        shutil.rmtree(out)
        return files

    from_flag = one_run(_flag(key), value)
    from_file = one_run("--config", str(config))
    assert MANIFEST_NAME in from_flag
    assert from_flag == from_file
    assert from_flag != one_run()


def test_cli_stage_chain(tmp_path):
    wav = tmp_path / "tone.wav"
    write_wav(wav, synth.voiced(0.6, 200.0, 200.0, seed=6))
    melf = tmp_path / "tone.melf"
    melf_small = tmp_path / "tone_small.melf"
    out_wav = tmp_path / "tone_out.wav"

    assert run_cli("mel", str(wav), str(melf)).returncode == 0
    assert run_cli(
        "resize", str(melf), str(melf_small), "--ratio", "0.9", "--seed", "3"
    ).returncode == 0
    assert run_cli("reconstruct", str(melf_small), str(out_wav)).returncode == 0
    got = read_wav(out_wav)
    assert got.sample_rate == 16000
    assert len(got) > 0


@pytest.mark.parametrize("command", ["reconstruct", "resize"])
def test_cli_refuses_a_melf_of_another_layout(tmp_path, command):
    melf = tmp_path / "hop300.melf"
    melf.write_bytes(struct.pack("<4sIIIII", b"MELF", 1, 0, 80, 16000, 300))
    out = tmp_path / "out"
    ratio = ["--ratio", "0.9"] if command == "resize" else []
    proc = run_cli(command, str(melf), str(out), *ratio)
    assert proc.returncode == 1
    assert proc.stderr == f"sraug {command}: {melf}: MELF hop_size 300; sraug reads only 320\n"
    assert not out.exists()


def test_cli_reconstruct_refuses_a_log_mel_past_the_ceiling(tmp_path):
    # exp(800) overflows even float64: one line names the file and the
    # bound, with no RuntimeWarning before it.
    logmels = np.full((3, 80), np.log(SpectralConfig.log_floor), dtype="<f4")
    logmels[1, 7] = 800.0
    melf = tmp_path / "loud.melf"
    melf.write_bytes(struct.pack("<4sIIIII", b"MELF", 1, 3, 80, 16000, 320) + logmels.tobytes())
    out = tmp_path / "loud.wav"
    proc = run_cli("reconstruct", str(melf), str(out))
    assert proc.returncode == 1
    assert proc.stderr == f"sraug reconstruct: {melf}: logmels entries must be <= 33.271165\n"
    assert not out.exists()


def test_cli_augment_fails_a_wav_past_the_mel_ceiling_alone(tmp_path):
    # Float-32 samples of 1e30 give log-mels near 73, past the ceiling of
    # 33.27: that file fails at stage mel, and the others are written.
    src = tmp_path / "in"
    small_corpus(src, n=2)
    loud = synth.voiced(0.6, 180, 220, seed=9).samples * 1e30
    (src / "loud.wav").write_bytes(build_wav(loud.astype("<f4").tobytes(), fmt_tag=3, bits=32))
    out = tmp_path / "out"
    proc = run_cli("augment", "--in", str(src), "--out", str(out), "--variants", "2")
    assert proc.returncode == 1
    assert "wrote 4 files, 1 failures" in proc.stdout
    failed = [line for line in proc.stderr.splitlines() if line.startswith("FAILED")]
    assert len(failed) == 1, proc.stderr
    assert failed[0].startswith(f"FAILED {src / 'loud.wav'} at stage mel: logmels entries must be <=")
    assert len(read_manifest(out)) == 4
    assert len(list(out.glob("*.wav"))) == 4


def test_cli_main_help_lists_the_commands(capsys):
    # What the installed `sraug` console script runs.
    with pytest.raises(SystemExit) as exit_info:
        cli_main(["--help"])
    assert exit_info.value.code == 0
    usage = capsys.readouterr().out
    assert all(name in usage for name in _COMMANDS)
    with pytest.raises(SystemExit) as exit_info:
        cli_main(["augment", "--help"])
    assert exit_info.value.code == 0
    assert "--in" in capsys.readouterr().out


def test_cli_f0_csv(tmp_path):
    wav = tmp_path / "tone.wav"
    write_wav(wav, synth.tone(220.0, 0.5))
    csv = tmp_path / "track.csv"
    assert run_cli("f0", str(wav), str(csv)).returncode == 0
    lines = csv.read_text().splitlines()
    assert lines[0] == "frame,time_sec,f0_hz"
    assert len(lines) > 1


def test_cli_f0_calls_dc_offset_silence_unvoiced(tmp_path):
    # PCM-16 digital silence at a DC offset of 8192, a quarter of full scale.
    wav = tmp_path / "dc.wav"
    wav.write_bytes(build_wav(struct.pack("<h", 8192) * 16000))
    csv = tmp_path / "track.csv"
    proc = run_cli("f0", str(wav), str(csv))
    assert proc.returncode == 0, proc.stderr
    rows = csv.read_text().splitlines()[1:]
    assert len(rows) == 47 and all(row.endswith(",0.000000") for row in rows)


def test_cli_f0pcc_identical_file(tmp_path):
    wav = tmp_path / "voiced.wav"
    write_wav(wav, synth.voiced(0.8, 170.0, 240.0, seed=8, vibrato=5.0))
    proc = run_cli("f0pcc", str(wav), str(wav))
    assert proc.returncode == 0
    assert proc.stdout.strip() == "1.000000"


@pytest.mark.parametrize("rate", [44100, 96000])
def test_cli_f0_tracks_at_16_khz(tmp_path, rate):
    # As `sraug augment` does; at the file's own rate, 96 kHz leaves no
    # room for a 50 Hz period in a 1,280-sample frame.
    wav = tmp_path / "voiced.wav"
    write_wav(wav, synth.voiced(0.8, 170.0, 240.0, seed=8, vibrato=5.0, sr=rate))
    csv = tmp_path / "track.csv"
    proc = run_cli("f0", str(wav), str(csv))
    assert proc.returncode == 0, proc.stderr
    want = tmp_path / "want.csv"
    write_f0_csv(want, yin_f0(resample(read_wav(wav), 16000), PitchConfig()))
    assert csv.read_bytes() == want.read_bytes()
    assert csv.read_text().splitlines()[2].startswith("1,0.020000,")  # 320 samples at 16 kHz


@pytest.mark.parametrize("rate", [44100, 96000])
def test_cli_f0pcc_compares_at_16_khz(tmp_path, rate):
    high = tmp_path / "high.wav"
    low = tmp_path / "low.wav"
    write_wav(high, synth.voiced(0.8, 170.0, 240.0, seed=8, vibrato=5.0, sr=rate))
    write_wav(low, resample(read_wav(high), 16000))
    proc = run_cli("f0pcc", str(high), str(low))
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) > 0.999


def test_cli_kl(tmp_path):
    q = tmp_path / "q.json"
    p = tmp_path / "p.json"
    q.write_text(json.dumps({"mean": [0.0], "log_std": [0.0]}))
    p.write_text(json.dumps({"mean": [0.0], "log_std": [float(np.log(2.0))]}))
    proc = run_cli("kl", str(q), str(p))
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0.318147"


def test_cli_kl_malformed_json(tmp_path):
    q = tmp_path / "q.json"
    q.write_text("{not json")
    proc = run_cli("kl", str(q), str(q))
    assert proc.returncode == 1
    assert "sraug kl" in proc.stderr


@pytest.mark.parametrize(
    "text",
    [
        '{"mean": [0.0]}',
        "[1, 2]",
        '{"mean": {"a": 1}, "log_std": [0.0]}',
        '{"mean": [0.0, 1.0], "log_std": [0.0]}',
    ],
    ids=["missing_log_std", "list", "object_for_mean", "unequal_lengths"],
)
def test_cli_kl_json_not_two_vectors(tmp_path, text):
    q = tmp_path / "q.json"
    q.write_text(text)
    proc = run_cli("kl", str(q), str(q))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"sraug kl: {q}: ")
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize("payload", [b"{not json", b"\xff"], ids=["not_json", "not_utf8"])
def test_cli_kl_unreadable_json_names_the_file(tmp_path, payload):
    ok = tmp_path / "ok.json"
    ok.write_text(json.dumps({"mean": [0.0], "log_std": [0.0]}))
    bad = tmp_path / "bad.json"
    bad.write_bytes(payload)
    proc = run_cli("kl", str(ok), str(bad))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith(f"sraug kl: {bad}: ")
    assert proc.stderr.count("\n") == 1
