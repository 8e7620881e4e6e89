"""Traced re-run of `sraug augment`, stage by stage, through the public API.

Run as a child process by run.py:

    python3 perfbench/traced.py --in CORPUS --out DIR --axis vertical \
        --variants 2 --jobs 1 --spans SPANS.json

It repeats what ``sraug.pipeline.run`` does with the CLI defaults (master
seed 0, ratio range 0.85-1.15, 60 Griffin-Lim iterations) but calls each
public stage itself, inside a span: name, start, end, parent, item.  The
WAVs it writes must be byte-identical to the pipeline's; run.py checks.
Spans stay in memory until the run ends.  Nothing else outlives its
item: Griffin-Lim's speed depends on how the C heap is reused between
its large temporaries, and holding arrays across items changes that.

Layer self time is a span's duration minus the part its child spans
cover (see ``self_times``).
"""

from __future__ import annotations

import time

_T_START = time.monotonic()  # before the heavy imports, so they get a span

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402


class Tracer:
    """Collects spans in memory for one process (or one work item)."""

    def __init__(self, item=None, parent=None):
        self.spans: list[dict] = []
        self._stack: list[str] = [parent] if parent else []
        self._item = item
        self._pid = os.getpid()

    @contextlib.contextmanager
    def span(self, name: str, start: float | None = None, **attrs):
        rec = {
            "id": f"{self._pid}:{self._item}:{len(self.spans)}",
            "name": name,
            "start": time.monotonic() if start is None else start,
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "item": self._item,
            "pid": self._pid,
            **attrs,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.monotonic()
            self._stack.pop()


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[dict]) -> dict[str, float]:
    """Self time of every span, by id: duration minus child coverage.

    Children that ran in parallel (pool workers) are merged before they
    are subtracted, so a span's self time is never negative.
    """
    children: dict[str, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {
        s["id"]: s["end"] - s["start"] - _union_length(children.get(s["id"], []))
        for s in spans
    }


def _augment_item(args):
    """One file, every variant, each public stage in its own span.

    Returns (records, failure, spans).  Mirrors
    ``sraug.pipeline.augment_file``, including its stage names.
    """
    path, cfg, item_index, parent = args
    from pathlib import Path

    import numpy as np

    from sraug.audio_io import read_wav, resample, write_wav
    from sraug.pipeline import derive_seed
    from sraug.spectral import mel_filterbank, mel_spectrogram, mel_to_linear
    from sraug.sr_ops import VERTICAL, ResizeSpec, horizontal_sr, sample_ratio, vertical_sr
    from sraug.vocoder import griffin_lim

    tracer = Tracer(item=item_index, parent=parent)
    path = Path(path)
    records = []

    def stage(stage_name, span_name, fn, *fargs, **attrs):
        with tracer.span(span_name, **attrs):
            try:
                return fn(*fargs)
            except Exception as exc:
                raise _Failed(stage_name, exc) from exc

    try:
        with tracer.span("pipeline.item", path=str(path)):
            wave = stage("read", "audio_io.read", read_wav, path, bytes=path.stat().st_size)
            if wave.sample_rate != cfg.spectral.sample_rate:
                wave = stage(
                    "resample", "audio_io.resample", resample, wave,
                    cfg.spectral.sample_rate, rate=wave.sample_rate,
                )
            mel = stage("mel", "spectral.mel", mel_spectrogram, wave, cfg.spectral)
            for variant in range(cfg.variants_per_file):
                seed = derive_seed(cfg.master_seed, item_index, variant)
                rng = np.random.default_rng(seed)
                ratio = sample_ratio(cfg.ratio_range, rng)
                spec = ResizeSpec(
                    ratio=ratio, axis=cfg.axis, pad_noise_std=cfg.pad_noise_std, seed=seed
                )
                if cfg.axis == VERTICAL:
                    resized = stage("resize", "sr_ops.resize", vertical_sr, mel, spec, rng)
                else:
                    resized = stage("resize", "sr_ops.resize", horizontal_sr, mel, spec)
                linear = stage(
                    "reconstruct", "spectral.nnls",
                    lambda m: mel_to_linear(m, mel_filterbank(m.config)), resized,
                )
                out = stage(
                    "reconstruct", "vocoder.griffin_lim", griffin_lim, linear, cfg.gl,
                    frames=resized.n_frames,
                )
                del linear  # freed here in the pipeline too, before the write
                out_path = Path(cfg.output_dir) / f"{path.stem}_sr{ratio:.3f}_{variant}.wav"
                stage("write", "audio_io.write", write_wav, out_path, out)
                records.append(
                    {
                        "source_path": str(path),
                        "output_path": str(out_path),
                        "ratio": ratio,
                        "seed": seed,
                    }
                )
    except _Failed as exc:
        failure = {"source_path": str(path), "stage": exc.stage, "error": str(exc.cause)}
        return [], failure, tracer.spans
    return records, None, tracer.spans


class _Failed(Exception):
    def __init__(self, stage, cause):
        super().__init__(stage)
        self.stage = stage
        self.cause = cause


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--in", dest="in_", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--axis", required=True)
    parser.add_argument("--variants", type=int, required=True)
    parser.add_argument("--jobs", type=int, required=True)
    parser.add_argument("--spans", required=True)
    args = parser.parse_args(argv)

    tracer = Tracer()
    with tracer.span("process", start=_T_START):
        with tracer.span("process.import", start=_T_START):
            from concurrent.futures import ProcessPoolExecutor
            from pathlib import Path

            from sraug.pipeline import (
                MANIFEST_NAME,
                AugmentManifest,
                PipelineConfig,
                discover_wavs,
            )
        cfg = PipelineConfig(
            input=args.in_,
            output_dir=args.out,
            variants_per_file=args.variants,
            axis=args.axis,
        )
        with tracer.span("pipeline.discover"):
            wavs = discover_wavs(cfg.input)
            Path(cfg.output_dir).mkdir(parents=True, exist_ok=True)
        with tracer.span("pipeline.pool", jobs=args.jobs) as pool_span:
            work = [(str(p), cfg, i, pool_span["id"]) for i, p in enumerate(wavs)]
            if args.jobs > 1:
                # The pipeline's own pool: default start method, pool.map.
                with ProcessPoolExecutor(max_workers=args.jobs) as pool:
                    results = list(pool.map(_augment_item, work))
            else:
                results = [_augment_item(w) for w in work]
        with tracer.span("pipeline.manifest"):
            manifest = AugmentManifest()
            for records, failure, _ in results:
                manifest.records.extend(records)
                if failure is not None:
                    manifest.failures.append(failure)
            manifest.write_jsonl(Path(cfg.output_dir) / MANIFEST_NAME)
    spans = list(tracer.spans)
    for _, _, item_spans in results:
        spans.extend(item_spans)
    payload = {"records": manifest.records, "failures": manifest.failures, "spans": spans}
    with open(args.spans, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
