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
    _frames,
    _overlap_add,
    _slab_pool,
    _slabs,
    _synthesize,
    mel_filterbank,
    mel_to_linear,
    write_melf,
)

EXTERNAL_VOCODER_TIMEOUT = 120.0
_PEAK_LIMIT = 0.95
_MOMENTUM = 0.99
# Frames per block of Griffin-Lim's per-frame work, in the start and in
# each iteration: a block's operands (about 44 kB a frame, 1.4 MB in all)
# stay in a 2 MB L2 cache from the analysis to the synthesis.  A multiple
# of 4, so block cuts from a slab's start fall on multiples of 4 rows.
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
    are new each iteration.  The per-frame work of each iteration (stft,
    momentum, phase update, istft up to the overlap-add) runs on
    contiguous slabs of frames (see spectral._slabs), one slab thread
    each (see spectral._set_threads).  A slab thread walks its slab in
    32-frame blocks from its first frame, running the whole chain on one
    block, in that block's own buffers, before the next, so a block's
    operands stay in cache.  Every element goes through the same
    operations in any slab or block, so the bytes are those of a single
    slab.  The start and the overlap-add run on the calling thread.
    """
    mags = s.mags
    spectral_cfg = s.config
    n_frames, n_bins = mags.shape
    if n_frames < 2:
        # Fewer than two frames synthesize zero samples after trimming.
        return Waveform(np.zeros(0), spectral_cfg.sample_rate)

    previous = np.empty((n_frames, n_bins), dtype=np.complex128)
    frames = np.empty((n_frames, spectral_cfg.n_fft))  # analysis and synthesis frames
    slabs = _slabs(n_frames)
    # Each slab's buffers for one block: the momentum term, then the
    # accelerated value, its phase and mags times that; and the
    # accelerated value's magnitude.  Allocated on this thread: arrays
    # allocated on the slab threads would grow their own malloc arenas
    # and peak memory.
    accelerated = np.empty((len(slabs), _BLOCK, n_bins), dtype=np.complex128)
    magnitude = np.empty((len(slabs), _BLOCK, n_bins))
    blend = _MOMENTUM / (1.0 + _MOMENTUM)
    step = 2.0 * np.pi * spectral_cfg.hop_size / spectral_cfg.n_fft

    def iterate(slab, accelerated, magnitude):
        # Without analysis frames, the first synthesis: from the start
        # phase in ``previous``, which then starts the momentum at zero.
        # After it, each block's rebuilt spectrum replaces the last one in
        # ``previous`` once the momentum term has been taken from it.
        for lo in range(slab.start, slab.stop, _BLOCK):
            rows = slice(lo, min(lo + _BLOCK, slab.stop))
            n = rows.stop - lo
            phase, size = accelerated[:n], magnitude[:n]
            if analysis_frames is None:
                np.multiply(mags[rows], previous[rows], out=phase)
                previous[rows] = 0.0
            else:
                np.multiply(previous[rows], blend, out=phase)
                _analyze(analysis_frames[rows], frames[rows], previous[rows])
                np.subtract(previous[rows], phase, out=phase)
                np.abs(phase, out=size)
                np.maximum(size, 1e-16, out=size)
                np.divide(phase, size, out=phase)
                np.multiply(mags[rows], phase, out=phase)
            _synthesize(phase, frames[rows])

    # The start, in ``previous``: frame 0's phase is -pi*k, and frame t's
    # is frame t - 1's plus its turn, from the log-magnitudes (in the
    # first slab's ``magnitude``) and turns (in its ``accelerated``) of a
    # block.
    previous[0] = 1.0
    previous[0, 1::2] = -1.0
    for lo in range(0, n_frames, _BLOCK):
        n = min(_BLOCK, n_frames - lo)
        logmag = np.maximum(mags[lo : lo + n], 1e-16, out=magnitude[0, :n])
        np.log(logmag, out=logmag)
        turns = accelerated[0, :n]
        _peak_turns(logmag, step, turns)
        for t in range(lo, min(lo + n, n_frames - 1)):
            np.multiply(previous[t], turns[t - lo], out=previous[t + 1])

    analysis_frames = None
    with _slab_pool() as run:
        run(iterate, slabs, accelerated, magnitude)
        for _ in range(cfg.n_iters):
            signal = _overlap_add(frames, spectral_cfg)
            analysis_frames = _frames(signal, spectral_cfg)
            run(iterate, slabs, accelerated, magnitude)

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
