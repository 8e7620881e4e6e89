"""Waveform reconstruction from spectrograms.

Griffin-Lim phase recovery (with momentum) is the built-in route; an
external command hook lets a real neural vocoder take over when one is
available.
"""

from __future__ import annotations

import shlex
import subprocess
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .audio_io import Waveform, _integer, read_wav, resample
from .errors import VocoderOutputMissing, VocoderProcessFailure
from .spectral import (
    LinearSpectrogram,
    MelSpectrogram,
    _analyze,
    _block_pool,
    _frames,
    _sum_frames,
    _synthesize,
    _window_sum,
    mel_filterbank,
    mel_to_linear,
    write_melf,
)

EXTERNAL_VOCODER_TIMEOUT = 120.0
_PEAK_LIMIT = 0.95
_MOMENTUM = 0.99
# Frames per block of Griffin-Lim's per-frame work, in the start, the
# first synthesis and each iteration: a block's operands (about 44 kB a
# frame, 1.4 MB in all) stay in a 2 MB L2 cache from the analysis to the
# synthesis.  A multiple of 4, so block cuts from a slab's start fall on
# multiples of 4 rows.
_BLOCK = 32


@dataclass(frozen=True)
class GriffinLimConfig:
    """Phase-recovery parameters: the number of Griffin-Lim iterations."""

    n_iters: int = 30

    def __post_init__(self):
        _integer(self.n_iters, "n_iters", 1)


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

    Two arrays span all frames: ``previous``, the last iteration's
    rebuilt spectrum for the momentum (the start phase until the first
    synthesis), and the frame buffer, which the overlap-add reads; only
    the overlap-add's accumulator, the signal and its reflect-padded copy
    are new each iteration.  The window sum that normalizes the
    overlap-add is computed once per call.  The per-frame work (the
    start's turns, the first synthesis, then each iteration's stft,
    momentum, phase update and istft up to the overlap-add) runs in
    32-frame blocks on the slab threads (see spectral._block_pool and
    spectral._set_threads), each block through the whole chain in its
    slab's buffers before the next, so a block's operands stay in cache.
    Every element goes through the same operations in any slab or block,
    so the bytes are those of a single slab.  The chaining of the start's
    turns and the overlap-add run on the calling thread.
    """
    mags = s.mags
    spectral_cfg = s.config
    n_frames, n_bins = mags.shape
    if n_frames < 2:
        # Fewer than two frames synthesize zero samples after trimming.
        return Waveform(np.zeros(0), spectral_cfg.sample_rate)

    denom = _window_sum(spectral_cfg, n_frames)
    previous = np.empty((n_frames, n_bins), dtype=np.complex128)
    frames = np.empty((n_frames, spectral_cfg.n_fft))  # analysis and synthesis frames
    blend = _MOMENTUM / (1.0 + _MOMENTUM)
    step = 2.0 * np.pi * spectral_cfg.hop_size / spectral_cfg.n_fft
    # Block buffers: a phase (the turns, the momentum term, then the
    # accelerated value, its phase and mags times that) and a magnitude
    # (the log-magnitudes, then the accelerated value's magnitude).
    scratch = (n_bins, np.complex128), (n_bins, np.float64)

    def turn(rows, phase, size):
        # Frame t's turn goes to previous[t + 1], to be chained below.
        logmag = np.maximum(mags[rows], 1e-16, out=size)
        np.log(logmag, out=logmag)
        _peak_turns(logmag, step, phase)
        following = previous[rows.start + 1 : rows.stop + 1]
        following[:] = phase[: len(following)]

    def synthesize(rows, phase, size):
        # The start phase in ``previous`` starts the momentum at zero.
        np.multiply(mags[rows], previous[rows], out=phase)
        previous[rows] = 0.0
        _synthesize(phase, frames[rows])

    def iterate(rows, phase, size):
        # Each block's rebuilt spectrum replaces the last one in
        # ``previous`` once the momentum term has been taken from it.
        np.multiply(previous[rows], blend, out=phase)
        _analyze(analysis_frames[rows], frames[rows], previous[rows])
        np.subtract(previous[rows], phase, out=phase)
        np.abs(phase, out=size)
        np.maximum(size, 1e-16, out=size)
        np.divide(phase, size, out=phase)
        np.multiply(mags[rows], phase, out=phase)
        _synthesize(phase, frames[rows])

    with _block_pool(n_frames, _BLOCK, *scratch) as run:
        run(turn)
        # The start: frame 0's phase is -pi*k, and frame t's is frame
        # t - 1's times its turn.  A loop, because np.multiply.accumulate
        # rounds complex products differently.
        previous[0] = 1.0
        previous[0, 1::2] = -1.0
        for t in range(1, n_frames):
            np.multiply(previous[t - 1], previous[t], out=previous[t])
        run(synthesize)
        for _ in range(cfg.n_iters):
            analysis_frames = _frames(_sum_frames(frames, spectral_cfg) / denom, spectral_cfg)
            run(iterate)

    out = _sum_frames(frames, spectral_cfg) / denom
    peak = np.max(np.abs(out))
    if peak > _PEAK_LIMIT:
        out *= _PEAK_LIMIT / peak
    return Waveform(out, spectral_cfg.sample_rate)


def reconstruct_from_mel(m: MelSpectrogram, glcfg: GriffinLimConfig) -> Waveform:
    """Mel to waveform: invert the filterbank, then run Griffin-Lim.

    Output is at m.config.sample_rate with (n_frames - 1) * hop_size
    samples.
    """
    return griffin_lim(mel_to_linear(m, mel_filterbank(m.config)), glcfg)


def external_vocoder(m: MelSpectrogram, command: str) -> Waveform:
    """Hand a mel-spectrogram to an external synthesis command.

    ``command`` is a shell-less invocation template containing the
    placeholders {mel} and {wav}; the mel is written as a MELF file to a
    fresh temp directory, the command runs with both placeholders
    substituted, and the WAV it writes is read back (resampled to
    m.config.sample_rate when the command produced a different rate).
    A command still running after EXTERNAL_VOCODER_TIMEOUT seconds is
    killed and raises VocoderProcessFailure.
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
            proc = subprocess.run(argv, capture_output=True, timeout=EXTERNAL_VOCODER_TIMEOUT)
        except subprocess.TimeoutExpired as exc:
            raise VocoderProcessFailure(
                f"vocoder timed out after {exc.timeout:.0f} s: {command}"
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
