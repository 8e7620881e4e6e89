"""Benchmark of `sraug augment`, end to end and layer by layer.

    python3 perfbench/run.py --workload utt16k_vertical --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  Each run generates its corpus from ``--seed``, runs the real
CLI (``python3 -m sraug.cli augment``) in fresh processes, checks the
outputs, and prints one JSON object as the last line of stdout:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Any failed check makes the exit code non-zero.

Everything a run writes goes under ``.perfbench/`` in the checkout; the
per-run record (metrics, timing tails, environment, spans) stays in
``.perfbench/results/``.  See perfbench/README.md for the metrics and
perfbench/predictions.json for which layer should move which metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench"
MANIFEST_FIELDS = {
    "source_path": str, "output_path": str, "ratio": float, "axis": str, "seed": int,
    "n_frames_in": int, "n_frames_out": int, "duration_sec_in": float,
    "duration_sec_out": float,
}
SETUP_REPS = 7
SETUP_FILE_S = 0.25
CORRUPT = {"bad_truncated", "bad_mp3tag"}
GL_ITERS_PROBE = 11


@dataclass(frozen=True)
class Workload:
    name: str
    axis: str
    variants: int
    jobs: int
    files: tuple  # (count, sample rate, bits, channels) per class
    seconds: tuple  # (shortest, longest) file duration


WORKLOADS = {
    w.name: w
    for w in (
        # 16 kHz input skips resampling; reconstruction is nearly all the work.
        Workload("utt16k_vertical", "vertical", 2, 1, ((8, 16000, 16, 1),), (1.0, 6.0)),
        # Resampling dominates; two ratios (1/3 and 320/441), a pool, 24-bit
        # and stereo reads, and the per-file failure path.
        Workload(
            "mixed_rate_jobs2", "vertical", 1, 2,
            ((4, 48000, 24, 1), (4, 22050, 16, 2), (2, 16000, 16, 1)), (1.0, 3.0),
        ),
        # Long files: Griffin-Lim arrays far beyond L2, time-axis resize.
        Workload("horizontal_long", "horizontal", 1, 1, ((2, 16000, 16, 1),), (30.0, 40.0)),
    )
}

# F0 registers of the generated speakers, Hz.
REGISTERS = (105.0, 160.0, 215.0)


class CheckFailed(Exception):
    """A correctness check on the program's outputs failed."""


def check(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# statistics


def tail(values: list[float]) -> dict:
    """Median plus the highest percentile with at least ten samples beyond it."""
    n = len(values)
    out = {"n": n, "median": statistics.median(values)}
    if n > 20:  # below that, no percentile above the median has ten beyond it
        pct = math.floor(100 * (n - 10) / n)
        out[f"p{pct}"] = statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
    return out


# ---------------------------------------------------------------------------
# environment


def _cache_sizes() -> dict:
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            mult = {"K": 1024, "M": 1024**2}.get(size[-1], 1)
            sizes[f"L{level}"] = int(size.rstrip("KM")) * mult
    return sizes


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def environment(blas_threads: int) -> dict:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):  # older numpy: no dict mode
        blas = {"name": "unknown", "version": "unknown"}
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": blas_threads,
        "caches_bytes": _cache_sizes(),
        "transparent_hugepages": _read("/sys/kernel/mm/transparent_hugepage/enabled"),
        "machine": platform.machine(),
    }


# ---------------------------------------------------------------------------
# processes


def _children(pid: int) -> list[int]:
    kids = []
    for task in Path(f"/proc/{pid}/task").glob("*"):
        try:
            kids += [int(k) for k in (task / "children").read_text().split()]
        except OSError:
            pass
    return kids


def _hwm_kb(pid: int) -> int | None:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        return None
    return None


class PeakRss:
    """Samples the peak RSS (VmHWM) of a process and its descendants.

    Each process's high-water mark only grows, so the last sample before
    it exits is its peak; the result is the sum over every process seen.
    """

    def __init__(self, pid: int, interval: float = 0.05):
        self._pid = pid
        self._interval = interval
        self._peaks: dict[int, int] = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self):
        while not self._stop.is_set():
            todo = [self._pid]
            while todo:
                pid = todo.pop()
                hwm = _hwm_kb(pid)
                if hwm is not None:
                    self._peaks[pid] = max(hwm, self._peaks.get(pid, 0))
                    todo += _children(pid)
            self._stop.wait(self._interval)

    def stop(self) -> float:
        """Stop sampling; returns the summed peak in MB."""
        self._stop.set()
        self._thread.join()
        return sum(self._peaks.values()) / 1024.0


def run_timed(cmd: list[str], env: dict, rss: bool = False, timeout: float = 170.0):
    """Run cmd to completion; returns (wall s, launch time, completed, peak MB or None)."""
    start = time.monotonic()
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    sampler = PeakRss(proc.pid) if rss else None
    try:
        out, err = proc.communicate(timeout=timeout)
        wall = time.monotonic() - start
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    finally:
        peak = sampler.stop() if sampler else None
    return wall, start, subprocess.CompletedProcess(cmd, proc.returncode, out, err), peak


def augment_cmd(w: Workload, in_dir: Path, out_dir: Path) -> list[str]:
    return [
        sys.executable, "-m", "sraug.cli", "augment", "--in", str(in_dir),
        "--out", str(out_dir), "--axis", w.axis, "--variants", str(w.variants),
        "--jobs", str(w.jobs),
    ]


# ---------------------------------------------------------------------------
# corpus


def build_corpus(w: Workload, seed: int, root: Path) -> list:
    """Write the workload's corpus; returns its good items."""
    import numpy as np

    import corpus

    rng = np.random.default_rng([seed, sum(map(ord, w.name))])
    items = []
    index = 0
    for count, rate, bits, channels in w.files:
        for dur in corpus.stratified(rng, count, *w.seconds):
            spk = index % len(REGISTERS)
            f0 = REGISTERS[spk] * rng.uniform(0.97, 1.03)
            rel = f"spk{spk:02d}/spk{spk:02d}_{index:03d}.wav"
            items.append(corpus.Item(rel, rate, bits, channels, corpus.utterance(rng, dur, f0)))
            index += 1
    corpus.write_corpus(root, items, corpus.corrupt_files(rng))
    return items


# ---------------------------------------------------------------------------
# correctness


def parse_failures(stderr: str) -> list[tuple[str, str]]:
    """(file stem, stage) for every 'FAILED <path> at stage <stage>:' line."""
    found = []
    for line in stderr.splitlines():
        if line.startswith("FAILED ") and " at stage " in line:
            path, rest = line[len("FAILED "):].split(" at stage ", 1)
            found.append((Path(path).stem, rest.split(":", 1)[0]))
    return found


def check_run(w: Workload, items, proc, out_dir: Path) -> tuple[list[dict], str]:
    """Every check on one `sraug augment` run; returns (records, digest)."""
    check(proc.returncode == 1, f"exit code {proc.returncode}, want 1 (two corrupt files)\n"
          f"{proc.stderr[-2000:]}")
    failures = parse_failures(proc.stderr)
    check(sorted(failures) == sorted((s, "read") for s in CORRUPT),
          f"failures {failures}, want exactly the corrupt files at stage 'read'")
    lines = (out_dir / "manifest.jsonl").read_text().splitlines()
    records = [json.loads(line) for line in lines]
    check(len(records) == len(items) * w.variants,
          f"{len(records)} records, want {len(items)} files x {w.variants} variants")
    outputs = [r["output_path"] for r in records]
    check(len(set(outputs)) == len(outputs), "two records name the same output path")
    on_disk = sorted(p.name for p in out_dir.glob("*.wav"))
    check(on_disk == sorted(Path(p).name for p in outputs),
          f"{len(on_disk)} WAVs on disk for {len(outputs)} records (outputs collided?)")
    for r in records:
        for key, kind in MANIFEST_FIELDS.items():
            value = r.get(key)
            ok = isinstance(value, kind) or (kind is float and isinstance(value, int))
            check(ok and not isinstance(value, bool), f"record field {key}={value!r}")
        check(r["axis"] == w.axis, f"axis {r['axis']}")
        check(0.85 <= r["ratio"] <= 1.15, f"ratio {r['ratio']} outside the default range")
        check(r["duration_sec_out"] == (r["n_frames_out"] - 1) * 320 / 16000,
              f"duration_sec_out {r['duration_sec_out']} vs {r['n_frames_out']} frames")
    digest = hashlib.sha256()
    for r in sorted(records, key=lambda r: r["output_path"]):
        name = Path(r["output_path"]).name
        digest.update(name.encode())
        digest.update((out_dir / name).read_bytes())
        stripped = {k: v for k, v in r.items() if k not in ("source_path", "output_path")}
        digest.update(json.dumps(stripped, sort_keys=True).encode())
    return records, digest.hexdigest()


def check_outputs(w: Workload, items, records, corpus_dir: Path, out_dir: Path):
    """Per-output checks that need the audio; returns per-output data."""
    import numpy as np

    from sraug.audio_io import Waveform, read_wav
    from sraug.pipeline import derive_seed
    from sraug.sr_ops import RatioRange, sample_ratio

    by_rel = {it.rel_path: it for it in items}
    order = sorted(
        [it.rel_path for it in items] + [f"spk_bad/{s}.wav" for s in CORRUPT],
        key=lambda rel: str(corpus_dir / rel),
    )
    pairs = []
    for r in records:
        rel = str(Path(r["source_path"]).relative_to(corpus_dir))
        item = by_rel[rel]
        index = order.index(rel)
        variant = int(Path(r["output_path"]).stem.rsplit("_", 1)[1])
        check(r["seed"] == derive_seed(0, index, variant),
              f"{rel}: seed {r['seed']} is not derived from (0, {index}, {variant})")
        replayed = sample_ratio(RatioRange(), np.random.default_rng(r["seed"]))
        check(r["ratio"] == replayed, f"{rel}: ratio {r['ratio']} is not {replayed} from its seed")
        n16 = item.ref.size
        check(abs(r["duration_sec_in"] - n16 / 16000) < 1.0 / item.rate,
              f"{rel}: duration_sec_in {r['duration_sec_in']} vs {n16 / 16000}")
        check(r["n_frames_in"] == n16 // 320 + 1, f"{rel}: n_frames_in {r['n_frames_in']}")
        out = read_wav(out_dir / Path(r["output_path"]).name)
        check(out.sample_rate == 16000, f"output rate {out.sample_rate}")
        check(len(out) == (r["n_frames_out"] - 1) * 320, f"{rel}: output length {len(out)}")
        peak = float(np.max(np.abs(out.samples)))
        check(0.05 < peak <= 0.95 + 2.0**-15, f"{rel}: output peak {peak}")
        source = read_wav(corpus_dir / rel) if item.rate == 16000 else Waveform(item.ref, 16000)
        pairs.append((r, item, source, out))
    return pairs


def record_digest(w: Workload, seed: int, digest: str, code_hash: str) -> None:
    """Every run of one workload and seed on one code version must agree."""
    path = WORK / "results" / "digests.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    key = f"{w.name}/{seed}/{code_hash}"
    check(known.get(key, digest) == digest,
          f"output digest {digest[:12]} differs from an earlier run's {known.get(key, '')[:12]}")
    known[key] = digest
    path.write_text(json.dumps(known, indent=1, sort_keys=True))


def code_hash() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted(BENCH_DIR.glob("*.py")):
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# measurements


def measure_setup(w: Workload, env: dict, work: Path) -> list[float]:
    """Fresh-process wall time to import sraug and augment one 0.25 s file."""
    import numpy as np

    import corpus

    tiny = work / "setup_in"
    tiny.mkdir()
    n = round(SETUP_FILE_S * corpus.SR)
    x = corpus.utterance(np.random.default_rng(0), SETUP_FILE_S + 0.02, 160.0)[:n]
    (tiny / "tiny.wav").write_bytes(corpus.wav_bytes(x, 16000, 16))
    times = []
    for rep in range(SETUP_REPS + 1):  # the first run warms caches, unreported
        out = work / f"setup_out{rep}"
        wall, _, proc, _ = run_timed(augment_cmd(w, tiny, out), env)
        check(proc.returncode == 0, f"setup run failed: {proc.stderr[-2000:]}")
        check(len(list(out.glob("*.wav"))) == w.variants, "setup run wrote no output")
        shutil.rmtree(out)
        if rep:
            times.append(wall)
    return times


def measure_augment(w: Workload, items, env, work: Path, corpus_dir: Path, seconds: float):
    """Repeat the whole-corpus run until `seconds` are used; check each rep.

    The number of reps is fixed after the first one, from its duration,
    so every run measures about `seconds` of work whatever the speed.
    """
    reps = []
    planned = 1
    while len(reps) < planned:
        out = work / f"out{len(reps)}"
        wall, start, proc, peak = run_timed(augment_cmd(w, corpus_dir, out), env, rss=True)
        records, digest = check_run(w, items, proc, out)
        reps.append({"wall": wall, "start": start, "peak_mb": peak, "digest": digest,
                     "records": records, "out": out, "attempted": len(items) + len(CORRUPT),
                     "rejected": len(parse_failures(proc.stderr))})
        if len(reps) == 1:
            planned = max(1, round(seconds / wall))
        else:
            shutil.rmtree(out)
    check(len({r["digest"] for r in reps}) == 1, "outputs differ between reps of one run")
    return reps


def target_mels(w: Workload, pairs, cfg) -> list:
    """The resized mel each output was asked to render, rebuilt from its source."""
    from sraug.spectral import mel_spectrogram

    import quality as q

    return [
        q.target_mel(mel_spectrogram(source, cfg.spectral), r["ratio"], r["seed"], w.axis,
                     cfg.pad_noise_std, cfg.ratio_range)
        for r, _, source, _ in pairs
    ]


def quality(w: Workload, pairs, targets) -> dict[str, list[float]]:
    import quality as q

    scores = {"mel_l1": [], "f0_shift_err_cents": [], "f0_pcc": []}
    for (r, _, source, out), target in zip(pairs, targets):
        for key, values in q.score(source, out, target, w.axis, r["ratio"]).items():
            scores[key] += values
    return scores


def traced_run(w: Workload, env, work: Path, corpus_dir: Path, untraced_out: Path):
    """The stage-by-stage traced re-run; returns (payload, wall, launch time)."""
    out = work / "traced_out"
    spans_path = work / "spans.json"
    cmd = [sys.executable, str(BENCH_DIR / "traced.py"), "--in", str(corpus_dir),
           "--out", str(out), "--axis", w.axis, "--variants", str(w.variants),
           "--jobs", str(w.jobs), "--spans", str(spans_path)]
    wall, start, proc, _ = run_timed(cmd, env)
    check(proc.returncode == 0, f"traced run failed: {proc.stderr[-2000:]}")
    payload = json.loads(spans_path.read_text())
    traced = sorted(p.name for p in out.glob("*.wav"))
    check(traced == sorted(p.name for p in untraced_out.glob("*.wav")),
          "traced run wrote other files than the pipeline")
    for name in traced:
        check((out / name).read_bytes() == (untraced_out / name).read_bytes(),
              f"traced output {name} differs from the pipeline's")
    check(sorted((Path(f["source_path"]).stem, f["stage"]) for f in payload["failures"])
          == sorted((s, "read") for s in CORRUPT), "traced run failed on other files")
    return payload, wall, start


def span_metrics(w: Workload, items, payload, traced_wall, launch, untraced_wall):
    """Per-layer self times from the traced run, and the wall attribution.

    Attribution: spans outside the pool count at their self time, spans
    inside it at self time / jobs, and what is left of the pool window is
    pool idle (worker start-up, load imbalance, shutdown).  The shares
    then add up to the traced wall time.
    """
    from traced import self_times

    spans = payload["spans"]
    own = self_times(spans)
    audio_s = sum(it.ref.size for it in items) / 16000.0
    audio_by_rate = {}
    for it in items:
        audio_by_rate[it.rate] = audio_by_rate.get(it.rate, 0.0) + it.ref.size / 16000.0

    total, attributed = {}, {}
    for s in spans:
        key = s["name"]
        if key == "audio_io.resample":
            key = f"audio_io.resample.{s['rate']}"
        total[key] = total.get(key, 0.0) + own[s["id"]]
        share = own[s["id"]] / (w.jobs if s["item"] is not None else 1)
        attributed[key] = attributed.get(key, 0.0) + share
    item_spans = [s for s in spans if s["name"] == "pipeline.item"]
    busy = sum(s["end"] - s["start"] for s in item_spans)
    good = {Path(it.rel_path).name for it in items}
    good_items_s = [s["end"] - s["start"] for s in item_spans if Path(s["path"]).name in good]
    root = next(s for s in spans if s["name"] == "process")
    pool = next(s for s in spans if s["name"] == "pipeline.pool")
    attributed["pipeline.pool"] = (pool["end"] - pool["start"]) - busy / w.jobs
    attributed["process.startup"] = root["start"] - launch
    attributed["process.exit"] = traced_wall - (root["end"] - launch)

    def per_audio(name, seconds=audio_s):
        return 1000.0 * total.get(name, 0.0) / seconds if seconds else 0.0

    metrics = {
        "audio_io.read_ms_per_audio_s": per_audio("audio_io.read"),
        "audio_io.resample_ms_per_audio_s.22050":
            per_audio("audio_io.resample.22050", audio_by_rate.get(22050, 0.0)),
        "audio_io.resample_ms_per_audio_s.48000":
            per_audio("audio_io.resample.48000", audio_by_rate.get(48000, 0.0)),
        "audio_io.write_ms_per_audio_s": per_audio("audio_io.write"),
        "audio_io.bytes_read": float(sum(s["bytes"] for s in spans if s["name"] == "audio_io.read")),
        "audio_io.bytes_written": float(sum(
            Path(r["output_path"]).stat().st_size for r in payload["records"])),
        "spectral.mel_ms_per_audio_s": per_audio("spectral.mel"),
        "spectral.nnls_ms_per_audio_s": per_audio("spectral.nnls"),
        "sr_ops.resize_ms_per_audio_s": per_audio("sr_ops.resize"),
        "vocoder.griffin_lim_ms_per_audio_s": per_audio("vocoder.griffin_lim"),
        "pipeline.item_self_ms_per_audio_s": per_audio("pipeline.item"),
        "pipeline.item_s_p50": statistics.median(good_items_s),
        "pipeline.item_s_p90": statistics.quantiles(good_items_s, n=10, method="inclusive")[8],
        "pipeline.pool_idle_frac": 1.0 - busy / (w.jobs * untraced_wall),
        "pipeline.items": float(len(item_spans)),
        "trace.untraced_wall_s": untraced_wall,
        "trace.traced_wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
    }
    for stage in ("read", "resample", "mel", "resize", "reconstruct", "write"):
        metrics[f"pipeline.failures.{stage}"] = float(
            sum(1 for f in payload["failures"] if f["stage"] == stage))
    return metrics, {"attributed_wall_s": attributed, "item_s": tail(good_items_s)}


def offline_metrics(items, pairs, targets) -> dict:
    """Layer timings outside the run, on the shapes the run used.

    Griffin-Lim is timed at 1 and GL_ITERS_PROBE iterations on each
    output's linear spectrogram, so (t(k) - t(1)) / (k - 1) is the cost
    of one iteration without the set-up and final inversion.
    """
    import numpy as np

    from sraug.pitch_eval import yin_f0
    from sraug.spectral import istft, mel_filterbank, mel_to_linear, stft
    from sraug.vocoder import GriffinLimConfig, griffin_lim

    import quality as q

    audio_s = sum(it.ref.size for it in items) / 16000.0
    stft_s = istft_s = frames = gl_iter_s = yin_s = yin_audio = 0.0
    convergence = []
    for (_, _, source, out), target in zip(pairs, targets):
        linear = mel_to_linear(target, mel_filterbank(target.config))
        t = time.perf_counter()
        spec = stft(out, target.config)
        stft_s += time.perf_counter() - t
        t = time.perf_counter()
        istft(spec)
        istft_s += time.perf_counter() - t
        frames += spec.n_frames
        convergence.append(q.spectral_convergence(linear.mags, np.abs(spec.values)))
        t = time.perf_counter()
        griffin_lim(linear, GriffinLimConfig(n_iters=1))
        t1 = time.perf_counter() - t
        t = time.perf_counter()
        griffin_lim(linear, GriffinLimConfig(n_iters=GL_ITERS_PROBE))
        gl_iter_s += (time.perf_counter() - t - t1) / (GL_ITERS_PROBE - 1)
        for wave in (source, out):
            t = time.perf_counter()
            yin_f0(wave)
            yin_s += time.perf_counter() - t
            yin_audio += wave.duration
    return {
        "spectral.stft_ms_per_frame": 1000.0 * stft_s / frames,
        "spectral.istft_ms_per_frame": 1000.0 * istft_s / frames,
        "vocoder.gl_iter_ms_per_audio_s": 1000.0 * gl_iter_s / audio_s,
        "vocoder.spectral_convergence": statistics.median(convergence),
        "pitch_eval.yin_ms_per_audio_s": 1000.0 * yin_s / yin_audio,
    }


# ---------------------------------------------------------------------------
# main


def fail(message: str, code: int = 2) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark `sraug augment`.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    w = WORKLOADS[args.workload]

    src = ROOT / "src"
    if not (src / "sraug" / "__init__.py").is_file():
        return fail(f"no sraug sources under {src}; run from a source checkout")
    nproc = os.cpu_count() or 1
    blas_threads = max(1, nproc // w.jobs)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(blas_threads)  # before numpy loads, here and in children
    env = dict(os.environ, PYTHONPATH=str(src))
    sys.path[:0] = [str(src), str(BENCH_DIR)]
    import sraug
    from sraug.pipeline import PipelineConfig

    if Path(sraug.__file__).resolve().parent != (src / "sraug").resolve():
        return fail(f"imported sraug from {sraug.__file__}, not {src}")

    work = WORK / f"run-{w.name}-s{args.seed}-t{args.trace}-{os.getpid()}"
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    corpus_dir = work / "corpus"
    record = {"workload": w.name, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds}
    try:
        env_info = environment(blas_threads)
        record["environment"] = env_info
        t = time.monotonic()
        items = build_corpus(w, args.seed, corpus_dir)
        record["corpus_s"] = time.monotonic() - t
        audio_s = sum(it.ref.size for it in items) / 16000.0
        record["audio_s"] = audio_s

        if args.trace == 0:
            setup = measure_setup(w, env, work)
        reps = measure_augment(w, items, env, work, corpus_dir, args.seconds)
        first = reps[0]
        record_digest(w, args.seed, first["digest"], code_hash())
        pairs = check_outputs(w, items, first["records"], corpus_dir, first["out"])
        cfg = PipelineConfig(str(corpus_dir), str(first["out"]))  # the CLI's defaults
        gl_bytes = max(r["n_frames_out"] for r in first["records"]) * cfg.spectral.n_bins * 16
        l2 = env_info["caches_bytes"].get("L2")
        record["largest_gl_array"] = {"bytes": gl_bytes, "over_l2": gl_bytes / l2 if l2 else None}
        walls = [r["wall"] for r in reps]
        record["augment_wall_s"] = {"values": walls, **tail(walls)}
        attempted = sum(r["attempted"] for r in reps)

        if args.trace == 0:
            scores = quality(w, pairs, target_mels(w, pairs, cfg))
            record["quality_windows"] = {k: {"mean": statistics.fmean(v), **tail(v)}
                                         for k, v in scores.items()}
            record["peak_rss_mb"] = [r["peak_mb"] for r in reps]
            record["setup_s"] = tail(setup)
            record["audio_s_per_s"] = tail([audio_s / x for x in walls])
            values = {
                "audio_s_per_s": statistics.median(audio_s / x for x in walls),
                "setup_s": statistics.median(setup),
                "peak_rss_mb": statistics.median(r["peak_mb"] for r in reps),
                "failed_frac": sum(r["rejected"] for r in reps) / attempted,
                # The L1 loss is a mean; its median would jump between files
                # when a corpus has only a few long ones.
                "mel_l1": statistics.fmean(scores["mel_l1"]),
                "f0_shift_err_cents": statistics.median(scores["f0_shift_err_cents"]),
                "f0_pcc": statistics.median(scores["f0_pcc"]),
            }
        else:
            payload, traced_wall, launch = traced_run(w, env, work, corpus_dir, first["out"])
            values, detail = span_metrics(w, items, payload, traced_wall, launch,
                                          statistics.median(walls))
            values.update(offline_metrics(items, pairs, target_mels(w, pairs, cfg)))
            record["trace_detail"] = detail
            record["spans"] = payload["spans"]
    except CheckFailed as exc:
        print(f"perfbench: check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    missing = sorted(set(declared) - set(values))
    if missing:
        return fail(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    record["metrics"] = values
    out_path = results / f"{w.name}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1))
    for key in ("environment", "largest_gl_array", "augment_wall_s", "setup_s",
                "audio_s_per_s", "quality_windows"):
        if key in record:
            print(f"{key}: {json.dumps(record[key])}")
    if "trace_detail" in record:
        attributed = record["trace_detail"]["attributed_wall_s"]
        print("wall attribution (s): " + json.dumps(
            {k: round(v, 4) for k, v in sorted(attributed.items(), key=lambda kv: -kv[1])}))
    # Rejecting the two corrupt files is the expected outcome, so it is
    # not a failed operation; it is what failed_frac counts.
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": 0,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
