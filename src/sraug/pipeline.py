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
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .audio_io import read_wav, resample, write_wav
from .errors import EmptyCorpus, IoFailure, StageFailure
from .spectral import SpectralConfig, mel_spectrogram
from .sr_ops import (
    HORIZONTAL,
    VERTICAL,
    RatioRange,
    ResizeSpec,
    horizontal_sr,
    sample_ratio,
    vertical_sr,
)
from .vocoder import GriffinLimConfig, external_vocoder, reconstruct_from_mel

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
        if self.variants_per_file < 1:
            raise ValueError("variants_per_file must be >= 1")
        if self.axis not in (VERTICAL, HORIZONTAL):
            raise ValueError(f"axis must be '{VERTICAL}' or '{HORIZONTAL}'")
        if not 0 <= int(self.master_seed) < 2**64:
            raise ValueError("master_seed must fit in 64 unsigned bits")
        if self.pad_noise_std < 0:
            raise ValueError("pad_noise_std must be >= 0")
        in_path = Path(self.input)
        if in_path.is_dir():
            in_dir = in_path
        elif in_path.suffix or in_path.is_file():
            in_dir = in_path.parent
        else:
            in_dir = in_path
        if Path(self.output_dir).resolve() == in_dir.resolve():
            raise ValueError("output_dir must differ from the input directory")


@dataclass
class AugmentManifest:
    """All records produced by a run, plus any per-file failures."""

    records: list[dict] = field(default_factory=list)
    failures: list[dict] = field(default_factory=list)

    def write_jsonl(self, path) -> None:
        """Write one JSON object per line, in record order."""
        try:
            with open(path, "w", encoding="ascii", newline="\n") as fh:
                for record in self.records:
                    fh.write(json.dumps(record) + "\n")
        except OSError as exc:
            raise IoFailure(f"cannot write {path}: {exc}") from exc


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
    if wave.sample_rate != cfg.spectral.sample_rate:
        wave = run_stage("resample", resample, wave, cfg.spectral.sample_rate)
    mel = run_stage("mel", mel_spectrogram, wave, cfg.spectral)

    records = []
    for variant in range(cfg.variants_per_file):
        seed = derive_seed(cfg.master_seed, item_index, variant)
        rng = np.random.default_rng(seed)
        ratio = sample_ratio(cfg.ratio_range, rng)
        spec = ResizeSpec(
            ratio=ratio, axis=cfg.axis, pad_noise_std=cfg.pad_noise_std, seed=seed
        )
        if cfg.axis == VERTICAL:
            resized = run_stage("resize", vertical_sr, mel, spec, rng)
        else:
            resized = run_stage("resize", horizontal_sr, mel, spec)
        if cfg.vocoder_cmd:
            out = run_stage("reconstruct", external_vocoder, resized, cfg.vocoder_cmd)
        else:
            out = run_stage("reconstruct", reconstruct_from_mel, resized, cfg.gl)
        out_path = Path(cfg.output_dir) / f"{path.stem}_sr{ratio:.3f}_{variant}.wav"
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


def _run_item(args) -> tuple[list[dict], dict | None]:
    path, cfg, item_index = args
    try:
        return augment_file(path, cfg, item_index), None
    except StageFailure as exc:
        return [], {"source_path": exc.path, "stage": exc.stage, "error": str(exc.cause)}


def run(cfg: PipelineConfig, jobs: int = 1) -> AugmentManifest:
    """Process a whole corpus and write manifest.jsonl to the output dir.

    One corrupt file only costs its own records: the failure is noted in
    the returned manifest and everything else proceeds.  With jobs > 1,
    files are processed in worker processes; outputs are identical to a
    serial run because seeds are keyed by item index.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    wavs = discover_wavs(cfg.input)
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    work = [(str(p), cfg, i) for i, p in enumerate(wavs)]
    manifest = AugmentManifest()
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_run_item, work))
    else:
        results = [_run_item(item) for item in work]
    for records, failure in results:
        manifest.records.extend(records)
        if failure is not None:
            manifest.failures.append(failure)

    manifest.write_jsonl(out_dir / MANIFEST_NAME)
    return manifest
