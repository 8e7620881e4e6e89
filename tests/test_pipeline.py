"""Batch pipeline: seed derivation, corpus discovery, manifest output,
failure isolation, parallel/serial equivalence, and the CLI surface."""

import json
import multiprocessing
import os
import shutil
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import synth
from sraug import audio_io, pipeline, vocoder
from sraug.audio_io import read_wav, write_wav
from sraug.cli import _AUGMENT_SETTINGS, _read_config_file, main as cli_main
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
    # Integer settings reject a float when the config is built.
    with pytest.raises(ValueError):
        PipelineConfig(input=str(src), output_dir=str(out), master_seed=1.5)
    with pytest.raises(ValueError):
        PipelineConfig(input=str(src), output_dir=str(out), variants_per_file=1.5)


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
    return [{"source_path": path, "threads": vocoder._threads}], None


@needs_fork
@pytest.mark.parametrize("cpus, jobs, threads", [(5, 2, 2), (5, 3, 1), (1, 2, 1)])
def test_run_gives_workers_their_cpu_share(tmp_path, monkeypatch, cpus, jobs, threads):
    small_corpus(tmp_path / "in", n=2)
    monkeypatch.setattr(pipeline, "available_cpus", lambda: cpus)
    monkeypatch.setattr(pipeline, "_run_item", _report_threads)
    cfg = PipelineConfig(input=str(tmp_path / "in"), output_dir=str(tmp_path / "out"))
    manifest = run(cfg, jobs=jobs)
    assert [r["threads"] for r in manifest.records] == [threads, threads]


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


def test_cli_f0_csv(tmp_path):
    wav = tmp_path / "tone.wav"
    write_wav(wav, synth.tone(220.0, 0.5))
    csv = tmp_path / "track.csv"
    assert run_cli("f0", str(wav), str(csv)).returncode == 0
    lines = csv.read_text().splitlines()
    assert lines[0] == "frame,time_sec,f0_hz"
    assert len(lines) > 1


def test_cli_f0pcc_identical_file(tmp_path):
    wav = tmp_path / "voiced.wav"
    write_wav(wav, synth.voiced(0.8, 170.0, 240.0, seed=8, vibrato=5.0))
    proc = run_cli("f0pcc", str(wav), str(wav))
    assert proc.returncode == 0
    assert proc.stdout.strip() == "1.000000"


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
