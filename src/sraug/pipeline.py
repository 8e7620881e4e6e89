"""Batch corpus augmentation: the full waveform → mel → resize → waveform
procedure over a directory of WAV files.

Every output is reproducible: each (file, variant) work item derives its
own RNG seed from (master_seed, item_index, variant) with a stable hash,
so results do not depend on scheduling order or worker count.
"""

from __future__ import annotations

import hashlib
import json
import struct
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .audio_io import _integer, read_wav, resample, write_atomic, write_wav
from .errors import EmptyCorpus, IoFailure, OutputCollision, StageFailure
from .spectral import SpectralConfig, mel_spectrogram
from .sr_ops import VERTICAL, RatioRange, ResizeSpec, resize, sample_ratio
from .vocoder import (
    GriffinLimConfig,
    available_cpus,
    external_vocoder,
    reconstruct_from_mel,
    _set_threads,
)

MANIFEST_NAME = "manifest.jsonl"

_SEED_MASK = 2**63 - 1  # keep seeds JSON-safe for 64-bit consumers


@dataclass(frozen=True)
class PipelineConfig:
    """Everything one augmentation batch needs."""

    input: str
    output_dir: str
    ratio_range: RatioRange = RatioRange()
    variants_per_file: int = 1
    axis: str = VERTICAL
    master_seed: int = 0
    spectral: SpectralConfig = SpectralConfig()
    gl: GriffinLimConfig = GriffinLimConfig()
    vocoder_cmd: str | None = None
    pad_noise_std: float = ResizeSpec.pad_noise_std

    def __post_init__(self):
        object.__setattr__(self, "input", str(self.input))
        object.__setattr__(self, "output_dir", str(self.output_dir))
        if _integer(self.variants_per_file, "variants_per_file") < 1:
            raise ValueError("variants_per_file must be >= 1")
        # The rules for axis, noise and seed.
        ResizeSpec(1.0, self.axis, self.pad_noise_std, self.master_seed)
        in_path = Path(self.input)
        out_dir = Path(self.output_dir).resolve()
        if in_path.is_dir() or not (in_path.suffix or in_path.is_file()):
            # A directory input is searched recursively, so its outputs
            # must not land anywhere under it.
            if out_dir.is_relative_to(in_path.resolve()):
                raise ValueError("output_dir must not be the input directory or below it")
        elif out_dir == in_path.parent.resolve():
            raise ValueError("output_dir must differ from the input directory")


@dataclass
class AugmentManifest:
    """All records produced by a run, plus any per-file failures."""

    records: list[dict] = field(default_factory=list)
    failures: list[dict] = field(default_factory=list)

    def write_jsonl(self, path) -> None:
        """Write one JSON object per line, in record order, atomically."""
        lines = "".join(json.dumps(record) + "\n" for record in self.records)
        write_atomic(path, [lines.encode("ascii")])


def derive_seed(master_seed: int, item_index: int, variant: int) -> int:
    """Stable 63-bit seed for one (file, variant) work item.

    Hash-based (BLAKE2b over the packed triple), so the value depends
    only on the three integers, never on platform or schedule.
    """
    payload = struct.pack(
        "<QQQ", master_seed & (2**64 - 1), item_index & (2**64 - 1), variant
    )
    digest = hashlib.blake2b(payload, digest_size=8, person=b"sraug.seed").digest()
    return int.from_bytes(digest, "little") & _SEED_MASK


def plan_variant(path, cfg: PipelineConfig, item_index: int, variant: int):
    """Seed, RNG, ratio and output path of one (file, variant) work item.

    The RNG has drawn the ratio; vertical resizing draws its padding
    noise from it next.
    """
    seed = derive_seed(cfg.master_seed, item_index, variant)
    rng = np.random.default_rng(seed)
    ratio = sample_ratio(cfg.ratio_range, rng)
    out_path = Path(cfg.output_dir) / f"{Path(path).stem}_sr{ratio:.3f}_{variant}.wav"
    return seed, rng, ratio, out_path


def augment_file(path, cfg: PipelineConfig, item_index: int) -> list[dict]:
    """Augment one WAV file; returns one manifest record per variant.

    Any failure is re-raised as StageFailure tagged with the file path
    and the stage ('read', 'resample', 'mel', 'resize', 'reconstruct',
    'write') that broke.
    """
    path = Path(path)

    def run_stage(stage, fn, *args):
        try:
            return fn(*args)
        except Exception as exc:
            raise StageFailure(path, stage, exc) from exc

    wave = run_stage("read", read_wav, path)
    duration_in = wave.duration
    wave = run_stage("resample", resample, wave, cfg.spectral.sample_rate)
    mel = run_stage("mel", mel_spectrogram, wave, cfg.spectral)

    records = []
    for variant in range(cfg.variants_per_file):
        seed, rng, ratio, out_path = plan_variant(path, cfg, item_index, variant)
        spec = ResizeSpec(
            ratio=ratio, axis=cfg.axis, pad_noise_std=cfg.pad_noise_std, seed=seed
        )
        resized = run_stage("resize", resize, mel, spec, rng)
        if cfg.vocoder_cmd:
            out = run_stage("reconstruct", external_vocoder, resized, cfg.vocoder_cmd)
        else:
            out = run_stage("reconstruct", reconstruct_from_mel, resized, cfg.gl)
        run_stage("write", write_wav, out_path, out)
        records.append(
            {
                "source_path": str(path),
                "output_path": str(out_path),
                "ratio": ratio,
                "axis": cfg.axis,
                "seed": seed,
                "n_frames_in": mel.n_frames,
                "n_frames_out": resized.n_frames,
                "duration_sec_in": duration_in,
                "duration_sec_out": out.duration,
            }
        )
    return records


def discover_wavs(input_path) -> list[Path]:
    """All .wav files (suffix in any case) under a path, lexicographically sorted."""
    input_path = Path(input_path)
    if input_path.is_file():
        return [input_path]
    if not input_path.is_dir():
        raise IoFailure(f"input path does not exist: {input_path}")
    found = sorted(
        (p for p in input_path.rglob("*") if p.suffix.lower() == ".wav" and p.is_file()),
        key=str,
    )
    if not found:
        raise EmptyCorpus(f"no .wav files under {input_path}")
    return found


def _check_unique_outputs(wavs: list[Path], cfg: PipelineConfig) -> None:
    """Raise OutputCollision if two work items would write the same file."""
    owners: dict[Path, Path] = {}
    for item_index, path in enumerate(wavs):
        for variant in range(cfg.variants_per_file):
            out_path = plan_variant(path, cfg, item_index, variant)[3]
            if out_path in owners:
                raise OutputCollision(
                    f"{owners[out_path]} and {path} would both write {out_path}"
                )
            owners[out_path] = path


def _run_item(args) -> tuple[list[dict], dict | None]:
    path, cfg, item_index = args
    try:
        return augment_file(path, cfg, item_index), None
    except StageFailure as exc:
        return [], {"source_path": exc.path, "stage": exc.stage, "error": str(exc.cause)}


def _worker_failure(item, exc: Exception) -> tuple[list[dict], dict]:
    """The result of an item whose worker process failed, not a stage."""
    error = f"{type(exc).__name__}: {exc}"
    return [], {"source_path": item[0], "stage": "worker", "error": error}


def _run_pools(work: list, indices, jobs: int, results: list) -> dict:
    """Run ``work[i]`` for each index on ``jobs`` worker processes.

    Stores each result in ``results[i]``.  At most ``jobs`` items are in
    flight, so a worker that dies breaks its pool for at most ``jobs``
    items; the items not yet started go on in a fresh pool.  Returns the
    items that were in flight when a pool broke, index -> exception.
    Each worker runs Griffin-Lim on an equal share of the CPUs.
    """
    threads = max(1, available_cpus() // jobs)
    todo = deque(indices)
    broken = {}
    while todo:
        with ProcessPoolExecutor(jobs, initializer=_set_threads, initargs=(threads,)) as pool:
            running = {}
            intact = True
            while running or (todo and intact):
                while intact and todo and len(running) < jobs:
                    try:
                        future = pool.submit(_run_item, work[todo[0]])
                    except BrokenProcessPool:
                        intact = False
                    else:
                        running[future] = todo.popleft()
                done, _ = wait(running, return_when=FIRST_COMPLETED)
                for future in done:
                    i = running.pop(future)
                    try:
                        results[i] = future.result()
                    except BrokenProcessPool as exc:
                        broken[i] = exc
                        intact = False
                    except Exception as exc:
                        results[i] = _worker_failure(work[i], exc)
    return broken


def _run_pool(work: list, jobs: int) -> list:
    """Results of ``work`` from ``jobs`` worker processes, in item order.

    The items in flight when a worker died run again at the end, one at
    a time, so only an item that kills its worker on its own is lost.
    """
    results: list = [None] * len(work)
    suspects = _run_pools(work, range(len(work)), jobs, results)
    for i, exc in _run_pools(work, sorted(suspects), 1, results).items():
        results[i] = _worker_failure(work[i], exc)
    return results


def run(cfg: PipelineConfig, jobs: int = 1) -> AugmentManifest:
    """Process a whole corpus and write manifest.jsonl to the output dir.

    Before any work, every output path is checked to be unique
    (OutputCollision otherwise).  One corrupt file, or one dead worker
    process, only costs its own records: the failure is noted in the
    returned manifest and everything else proceeds.  With jobs > 1, files
    are processed in worker processes; outputs are identical to a serial
    run because seeds are keyed by item index.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    wavs = discover_wavs(cfg.input)
    _check_unique_outputs(wavs, cfg)
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    work = [(str(p), cfg, i) for i, p in enumerate(wavs)]
    manifest = AugmentManifest()
    if jobs > 1:
        results = _run_pool(work, jobs)
    else:
        results = [_run_item(item) for item in work]
    for records, failure in results:
        manifest.records.extend(records)
        if failure is not None:
            manifest.failures.append(failure)

    manifest.write_jsonl(out_dir / MANIFEST_NAME)
    return manifest
