"""Waveform reconstruction from spectrograms.

Griffin-Lim phase recovery (with momentum) is the built-in route; an
external command hook lets a real neural vocoder take over when one is
available.
"""

from __future__ import annotations

import os
import shlex
import subprocess
import tempfile
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .audio_io import Waveform, read_wav, resample
from .errors import VocoderOutputMissing, VocoderProcessFailure
from .spectral import (
    LinearSpectrogram,
    MelSpectrogram,
    _analyze,
    _frames,
    _ola_buffer,
    _overlap_add,
    _synthesize,
    mel_filterbank,
    mel_to_linear,
    write_melf,
)

EXTERNAL_VOCODER_TIMEOUT = 120.0
_PEAK_LIMIT = 0.95
_MOMENTUM = 0.99
# Fewest frames worth a thread of their own.
_MIN_SLAB_FRAMES = 32

# Griffin-Lim threads in this process; None uses every available CPU.
_threads: int | None = None


@dataclass(frozen=True)
class GriffinLimConfig:
    """Phase-recovery parameters: the number of Griffin-Lim iterations."""

    n_iters: int = 60

    def __post_init__(self):
        if self.n_iters < 1:
            raise ValueError("n_iters must be >= 1")


def available_cpus() -> int:
    """Number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _set_threads(n: int) -> None:
    """Run later griffin_lim calls in this process on ``n`` threads.

    The initializer of pipeline's worker pools; without a call,
    griffin_lim uses every available CPU.
    """
    global _threads
    if n < 1:
        raise ValueError(f"need at least one thread, got {n}")
    _threads = n


def griffin_lim(s: LinearSpectrogram, cfg: GriffinLimConfig) -> Waveform:
    """Recover a waveform whose STFT magnitudes approximate ``s``.

    Fast Griffin-Lim (Perraudin et al. 2013): starting from zero phase in
    every bin, alternate istft/stft projections, keeping only the phase of
    each projection (accelerated by a 0.99 momentum term) and reimposing
    the target magnitudes.  The final waveform is scaled down to a 0.95
    peak if it comes out louder.

    The per-frame buffers are allocated once and filled in place; only
    the signal and its reflect-padded copy are new each iteration.  The
    per-frame work
    (stft, phase update, istft up to the overlap-add) runs on contiguous
    slabs of frames, one thread each, and gives the same bytes as a
    single slab: every element goes through the same operations.
    """
    mags = s.mags
    spectral_cfg = s.config
    n_frames, n_bins = mags.shape
    if n_frames < 2:
        # Fewer than two frames synthesize zero samples after trimming.
        return Waveform(np.zeros(0), spectral_cfg.sample_rate)

    angles = np.ones((n_frames, n_bins), dtype=np.complex128)
    rebuilt = np.empty_like(angles)
    previous = np.zeros_like(angles)
    scratch = np.empty_like(angles)  # accelerated value, then mags * angles
    magnitude = np.empty((n_frames, n_bins))
    frames = np.empty((n_frames, spectral_cfg.n_fft))  # analysis and synthesis frames
    acc = _ola_buffer(n_frames, spectral_cfg)
    blend = _MOMENTUM / (1.0 + _MOMENTUM)

    def synthesize(rows):
        np.multiply(mags[rows], angles[rows], out=scratch[rows])
        _synthesize(scratch[rows], spectral_cfg, frames[rows])

    def update(rows):
        # ``rebuilt`` and ``previous`` are swapped between iterations.
        _analyze(analysis_frames[rows], spectral_cfg, frames[rows], rebuilt[rows])
        accelerated = scratch[rows]
        np.multiply(previous[rows], blend, out=accelerated)
        np.subtract(rebuilt[rows], accelerated, out=accelerated)
        np.abs(accelerated, out=magnitude[rows])
        np.maximum(magnitude[rows], 1e-16, out=magnitude[rows])
        np.divide(accelerated, magnitude[rows], out=angles[rows])
        synthesize(rows)

    n_slabs = max(1, min(_threads or available_cpus(), n_frames // _MIN_SLAB_FRAMES))
    bounds = [n_frames * i // n_slabs for i in range(n_slabs + 1)]
    slabs = [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    # A pool per call: no thread outlives it, so pool workers may fork.
    with ThreadPoolExecutor(n_slabs) if n_slabs > 1 else nullcontext() as pool:
        each_slab = pool.map if pool else map
        list(each_slab(synthesize, slabs))
        for _ in range(cfg.n_iters):
            signal = _overlap_add(frames, spectral_cfg, acc)
            analysis_frames = _frames(signal, spectral_cfg)
            list(each_slab(update, slabs))
            rebuilt, previous = previous, rebuilt

    out = _overlap_add(frames, spectral_cfg, acc)
    peak = np.max(np.abs(out))
    if peak > _PEAK_LIMIT:
        out *= _PEAK_LIMIT / peak
    return Waveform(out, spectral_cfg.sample_rate)


def reconstruct_from_mel(m: MelSpectrogram, glcfg: GriffinLimConfig) -> Waveform:
    """Mel to waveform: invert the filterbank, then run Griffin-Lim.

    Output is at m.config.sample_rate with (n_frames - 1) * hop_size
    samples.
    """
    linear = mel_to_linear(m, mel_filterbank(m.config))
    return griffin_lim(linear, glcfg)


def external_vocoder(
    m: MelSpectrogram, command: str, timeout: float = EXTERNAL_VOCODER_TIMEOUT
) -> Waveform:
    """Hand a mel-spectrogram to an external synthesis command.

    ``command`` is a shell-less invocation template containing the
    placeholders {mel} and {wav}; the mel is written as a MELF file to a
    fresh temp directory, the command runs with both placeholders
    substituted, and the WAV it writes is read back (resampled to
    m.config.sample_rate when the command produced a different rate).
    """
    if "{mel}" not in command or "{wav}" not in command:
        raise ValueError("command template must contain {mel} and {wav}")
    with tempfile.TemporaryDirectory(
        prefix="sraug-vocoder-", ignore_cleanup_errors=True
    ) as tmpdir:
        mel_path = Path(tmpdir) / "in.melf"
        wav_path = Path(tmpdir) / "out.wav"
        write_melf(mel_path, m)
        argv = [
            arg.replace("{mel}", str(mel_path)).replace("{wav}", str(wav_path))
            for arg in shlex.split(command)
        ]
        try:
            proc = subprocess.run(argv, capture_output=True, timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise VocoderProcessFailure(
                f"vocoder timed out after {timeout:.0f} s: {command}"
            ) from exc
        except OSError as exc:
            raise VocoderProcessFailure(f"cannot launch vocoder: {exc}") from exc
        if proc.returncode != 0:
            stderr = proc.stderr.decode(errors="replace").strip()
            raise VocoderProcessFailure(
                f"vocoder exited with {proc.returncode}: {stderr or '<no stderr>'}",
                returncode=proc.returncode,
                stderr=stderr,
            )
        if not wav_path.exists():
            raise VocoderOutputMissing(f"vocoder exited 0 but wrote no {wav_path}")
        out = read_wav(wav_path)
    return resample(out, m.config.sample_rate)
