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

from .audio_io import Waveform, _integer, read_wav, resample
from .errors import VocoderOutputMissing, VocoderProcessFailure
from .spectral import (
    LinearSpectrogram,
    MelSpectrogram,
    _analyze,
    _frames,
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
# Frames per block of the start phase's peak picking.  Its temporaries
# (about 20 bytes per bin) then stay far below the loop's own, so the
# start leaves peak memory where it was.
_START_BLOCK = 16

# Griffin-Lim threads in this process; None uses every available CPU.
_threads: int | None = None


@dataclass(frozen=True)
class GriffinLimConfig:
    """Phase-recovery parameters: the number of Griffin-Lim iterations."""

    n_iters: int = 30

    def __post_init__(self):
        _integer(self.n_iters, "n_iters", 1)


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
    _threads = _integer(n, "threads", 1)


def _peak_turns(logmag: np.ndarray, step: float, out: np.ndarray) -> None:
    """Write each bin's phase turn per hop into ``out`` for a block of log-magnitude frames.

    In each frame the local maxima over frequency are the peaks, with
    -inf beyond both edges and a tie counting as not rising.  An inner
    peak's frequency is refined to the vertex of the parabola through
    its log-magnitude and its two neighbours; a peak at an edge keeps
    its bin.  A basin runs from a frame's first bin or a local minimum
    up to the next one and holds exactly one peak; every bin in it
    turns by exp(1j * step * f), f the refined frequency (in bins) of
    that peak.
    """
    n_frames, n_bins = logmag.shape
    rises = np.empty((n_frames, n_bins + 1), dtype=bool)  # bin k above bin k - 1
    rises[:, 0] = True
    rises[:, -1] = False
    np.greater(logmag[:, 1:], logmag[:, :-1], out=rises[:, 1:-1])
    peaks = np.flatnonzero(rises[:, :-1] > rises[:, 1:])
    bins = peaks % n_bins
    flat = logmag.reshape(-1)
    peak = flat[peaks]
    up = peak - flat.take(peaks - 1, mode="clip")
    down = flat.take(peaks + 1, mode="clip") - peak
    freqs = np.zeros(len(peaks))
    np.divide(up + down, up - down, out=freqs, where=(bins > 0) & (bins < n_bins - 1))
    freqs *= 0.5
    freqs += bins
    freqs *= step
    turns = np.empty(len(peaks), dtype=np.complex128)
    np.cos(freqs, out=turns.real)
    np.sin(freqs, out=turns.imag)
    # Basins in row-major order hold the peaks in the same order.
    starts = rises[:, 1:] > rises[:, :-1]
    starts[:, 0] = True
    lengths = np.diff(np.flatnonzero(starts), append=starts.size)
    out.reshape(-1)[:] = np.repeat(turns, lengths)


def griffin_lim(s: LinearSpectrogram, cfg: GriffinLimConfig) -> Waveform:
    """Recover a waveform whose STFT magnitudes approximate ``s``.

    Fast Griffin-Lim (Perraudin et al. 2013): alternate istft/stft
    projections, keeping only the phase of each projection (accelerated
    by a 0.99 momentum term) and reimposing the target magnitudes.  The
    final waveform is scaled down to a 0.95 peak if it comes out louder.

    The start is a phase-vocoder phase, the time-direction half of
    phase-gradient heap integration (Prusa, Balazs & Sondergaard 2017),
    so far fewer iterations are needed than from zero phase.  Each bin
    takes the frequency f (in bins) of the spectral peak of its own
    basin, the run of bins between two local minima, with the peak
    refined by quadratic interpolation on log-magnitude (see
    _peak_turns); so a bin never follows a peak across a valley of
    noise floor.  Frame 0 has phase -pi*k in bin k, and each later
    frame adds the previous frame's 2*pi*f*hop/n_fft.  The -pi*k term
    is there because frames are windowed about their center, n_fft/2
    samples after the sample the DFT measures phase from, so the phase
    of a stationary partial alternates by pi from bin to bin across its
    peak.

    The per-frame buffers are allocated once and filled in place; only
    the overlap-add's accumulator, the signal and its reflect-padded
    copy are new each iteration.  The per-frame work of each iteration
    (stft, phase update, istft up to the overlap-add) runs on contiguous
    slabs of frames, one thread each, and gives the same bytes as a
    single slab: every element goes through the same operations.  The
    start and the overlap-add run on the calling thread.
    """
    mags = s.mags
    spectral_cfg = s.config
    n_frames, n_bins = mags.shape
    if n_frames < 2:
        # Fewer than two frames synthesize zero samples after trimming.
        return Waveform(np.zeros(0), spectral_cfg.sample_rate)

    angles = np.empty((n_frames, n_bins), dtype=np.complex128)
    rebuilt = np.empty_like(angles)
    previous = np.zeros_like(angles)
    scratch = np.empty_like(angles)  # accelerated value, then mags * angles
    magnitude = np.empty((n_frames, n_bins))
    frames = np.empty((n_frames, spectral_cfg.n_fft))  # analysis and synthesis frames
    blend = _MOMENTUM / (1.0 + _MOMENTUM)
    step = 2.0 * np.pi * spectral_cfg.hop_size / spectral_cfg.n_fft

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

    # The start: log-magnitudes in ``magnitude``, each bin's turn per hop
    # in ``rebuilt``, then frame t's phase is -pi*k for t = 0 and frame
    # t - 1's phase plus its turn after that.
    for lo in range(0, n_frames, _START_BLOCK):
        block = slice(lo, lo + _START_BLOCK)
        logmag = np.maximum(mags[block], 1e-16, out=magnitude[block])
        np.log(logmag, out=logmag)
        _peak_turns(logmag, step, rebuilt[block])
    angles[0] = 1.0
    angles[0, 1::2] = -1.0
    for t in range(1, n_frames):
        np.multiply(angles[t - 1], rebuilt[t - 1], out=angles[t])

    n_slabs = max(1, min(_threads or available_cpus(), n_frames // _MIN_SLAB_FRAMES))
    bounds = [n_frames * i // n_slabs for i in range(n_slabs + 1)]
    slabs = [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    # A pool per call: no thread outlives it, so pool workers may fork.
    with ThreadPoolExecutor(n_slabs) if n_slabs > 1 else nullcontext() as pool:
        each_slab = pool.map if pool else map
        list(each_slab(synthesize, slabs))
        for _ in range(cfg.n_iters):
            signal = _overlap_add(frames, spectral_cfg)
            analysis_frames = _frames(signal, spectral_cfg)
            list(each_slab(update, slabs))
            rebuilt, previous = previous, rebuilt

    out = _overlap_add(frames, spectral_cfg)
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
