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

from .audio_io import Waveform, _integer, _Owned, read_wav, resample
from .errors import VocoderOutputMissing, VocoderProcessFailure
from .spectral import (
    LinearSpectrogram,
    MelSpectrogram,
    SpectralConfig,
    _add_chunks,
    _analyze,
    _block_pool,
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


def _peak_turns(mags: np.ndarray, step: float, out: np.ndarray) -> None:
    """Write each bin's phase turn per hop into ``out`` for a block of magnitude frames.

    The logs of the magnitudes, floored at 1e-16 and widened to float64,
    fill the bytes of the complex64 ``out`` until the turns are written
    over them.  In each frame the local maxima over frequency are the
    peaks, with -inf beyond both edges and a tie counting as not rising.
    An inner peak's frequency is refined to the vertex of the parabola
    through its log-magnitude and its two neighbours; a peak at an edge
    keeps its bin.  A basin runs from a frame's first bin or a local
    minimum up to the next one and holds exactly one peak; every bin in
    it turns by exp(1j * step * f), f the refined frequency (in bins) of
    that peak.
    """
    logmag = np.maximum(mags, 1e-16, out=out.view(np.float64), dtype=np.float64)
    np.log(logmag, out=logmag)
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
    # Computed in float64 and rounded once to complex64.
    turns = np.empty(len(peaks), dtype=np.complex64)
    np.cos(freqs, out=turns.real)
    np.sin(freqs, out=turns.imag)
    # Basins in row-major order hold the peaks in the same order.
    starts = rises[:, 1:] > rises[:, :-1]
    starts[:, 0] = True
    lengths = np.diff(np.flatnonzero(starts), append=starts.size)
    out.reshape(-1)[:] = np.repeat(turns, lengths)


def _follow(turns: np.ndarray, carry: np.ndarray) -> None:
    """Replace each frame's turn in ``turns`` by the frame's phase.

    ``carry[0]`` holds the first frame's phase and is left holding the
    phase after the last frame; ``carry[1]`` is scratch.  Each phase is
    the one before it times that frame's turn, in that order, one frame at
    a time, because np.multiply.accumulate rounds complex products
    differently.
    """
    now, after = carry
    for turn in turns:
        np.multiply(now, turn, out=after)
        turn[:] = now
        now, after = after, now
    carry[0] = now


def griffin_lim(s: LinearSpectrogram, cfg: GriffinLimConfig) -> Waveform:
    """Recover a waveform whose STFT magnitudes approximate ``s``.

    Fast Griffin-Lim (Perraudin et al. 2013): alternate istft/stft
    projections, keeping only the phase of each projection (accelerated
    by a 0.99 momentum term) and reimposing the target magnitudes: the
    accelerated spectrum c is multiplied by one real factor,
    mags / max(|c|, 1e-16).  The final waveform is scaled down to a 0.95
    peak if it comes out louder.  The STFT is linear, so the accelerated
    spectrum STFT(x_i) - b * STFT(x_i-1), b = 0.99 / 1.99, is taken as
    STFT(x_i - b * x_i-1): from the last two signals, with no spectrum
    kept from one iteration to the next.  The first iteration, with no
    signal before it, analyzes x_0 alone.

    The loop runs in single precision: complex64 spectra, float32
    signal, windows and window sum, and the float32 ``s.mags``, read in
    place.  The output is 16-bit PCM, and on speech-like input the
    spectral convergence and log-mel L1 agree with a float64 loop's to 5
    decimal places.  The output widens to float64, and the limiter's
    scale is applied as it widens.

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
    peak.  Each block of the first synthesis computes the turns of its
    frames and chains them from the phase the block before it in its slab
    left.  A later slab's first phase comes from the calling thread,
    which chains the frames before the last slab, a block at a time,
    beforehand; so at one slab each frame's turns are computed once, and
    at several only the frames before the last slab's are computed twice.

    ``s.mags`` and one float32 array are all that span all frames.  The
    array's two halves are the signal buffers, of (n_frames + n_tail) x
    hop samples each, n_tail = n_fft / hop - 1 = 3: an iteration reads
    the frames of x_i in one while its synthesis overlap-adds x_i+1 into
    the other, over x_i-1, and the two swap roles; the last signal lands
    in the upper half.  Each buffer is the center-padded signal itself,
    so no padded copy is made.  The per-frame work (the first synthesis,
    then each iteration's stft of the momentum rows, phase update, istft
    and overlap-add) runs in 32-frame blocks on the slab threads (see
    spectral._block_pool and spectral._set_threads), each block through
    the whole chain before the next, so a block's operands stay in cache.
    A block forms its rows of x_i - b * x_i-1 in the bytes of its
    spectrum buffer before the synthesis writes over x_i-1; the n_tail
    rows of x_i-1 past a slab's end, which the next slab's first block
    writes over, are copied aside before each pass.
    A block synthesizes its frames after the n_tail before it in its slab
    (in a window per slab, picked by the slab index the runner passes),
    adds them into its own rows (spectral._add_chunks) and divides the
    complete ones by the window sum.  That is a table computed once per
    call over at most n_tail + 3 frames, which holds every distinct row
    of the window sum, and a map from each signal row to its table row:
    rows that all n_tail + 1 frames reach share one.  Afterwards
    the calling thread adds the last frames of each slab to the first
    n_tail rows of the slab after it, divides those rows, and writes the
    reflected edges.  Every row sums its frames in the same order and
    every element goes through the same operations in any slab or block,
    so the bytes are those of a single slab.  The output widens forward
    into the same array as float64, in pieces that end before the
    samples still to be read, so it takes no memory of its own.
    """
    spectral_cfg = SpectralConfig
    n_frames, n_bins = s.mags.shape
    if n_frames < 2:
        # Fewer than two frames synthesize zero samples after trimming.
        return Waveform(np.zeros(0), spectral_cfg.sample_rate)

    n_fft, hop = spectral_cfg.n_fft, spectral_cfg.hop_size
    pad = n_fft // 2
    length = (n_frames - 1) * hop
    # Row r of a signal buffer holds samples r*hop to (r+1)*hop of the
    # padded signal: frames r, r - 1, ..., r - n_tail overlap-added.
    n_tail = n_fft // hop - 1
    n_rows = n_frames + n_tail
    # Divisors: the window sum over the signal, and 1 over the padding,
    # which the reflected edges overwrite.  Rows 0 to n_tail and the last
    # n_tail + 1 hold padding or miss a frame; every row between sums all
    # n_tail + 1 chunks in one order (see spectral._add_chunks), so they
    # are equal to the byte, and n_tail + 3 frames have every distinct row.
    n_table = min(n_frames, n_tail + 3)
    table = np.ones((n_table + n_tail, hop), dtype=np.float32)
    table.reshape(-1)[pad : pad + (n_table - 1) * hop] = _window_sum(n_table)
    row_of = np.minimum(np.arange(n_rows), n_tail + 1)
    row_of[-n_tail - 1 :] = np.arange(n_table - 1, n_table + n_tail)
    # Signal x_k lives in halves[(k + 1 - n_iters) % 2]; x_-1 is zero.
    halves = np.empty((2, n_rows, hop), dtype=np.float32)
    halves[cfg.n_iters % 2] = 0.0
    mags = s.mags
    blend = _MOMENTUM / (1.0 + _MOMENTUM)
    step = 2.0 * np.pi * hop / n_fft
    # Block buffers: a spectrum (the log-magnitudes in float64 and the
    # turns, or the rows of x_i - b * x_i-1, then the accelerated value
    # and mags times its phase) and a factor (the accelerated value's
    # magnitude, then mags over that).
    scratch = (n_bins, np.complex64), (n_bins, np.float32)

    def owned(lo, stop):
        # The signal rows of the frames lo to stop: the last frame's
        # block and slab also own the n_tail rows past it.
        return slice(lo, stop + n_tail if stop == n_frames else stop)

    def emit(rows, i, phase):
        # The block's rows get its frames, synthesized from ``phase``, and
        # slab i's frames before it in reach; those that no earlier slab's
        # frame reaches are divided by the window sum (see finish).
        first_row, window = slabs[i].start, windows[i]
        n = rows.stop - rows.start
        _synthesize(phase, window[n_tail : n_tail + n])
        mine = owned(rows.start, rows.stop)
        first = max(first_row, rows.start - n_tail)
        signal[mine] = 0.0
        _add_chunks(signal, mine, window[first - rows.start + n_tail : n_tail + n], first)
        done = slice(max(mine.start, first_row + n_tail) if first_row else mine.start, mine.stop)
        np.divide(signal[done], table[row_of[done]], out=signal[done])
        window[:n_tail] = window[n : n + n_tail]

    def synthesize(rows, i, phase, size):
        # The block's phases follow from the one the block before it in
        # slab i left in carry[i] (see the start below).
        _peak_turns(mags[rows], step, phase)
        _follow(phase, carry[i])
        np.multiply(mags[rows], phase, out=phase)
        emit(rows, i, phase)

    def iterate(rows, i, phase, size):
        # The block's rows of x_i - b * x_i-1, those of x_i-1 past the
        # slab's end from ``edges``, fill the bytes of ``phase``, read as
        # rows and as frames, until the analysis writes the spectrum over
        # them.
        n = len(phase)
        accelerated = np.ndarray((n + n_tail, hop), np.float32, phase)
        frames = np.ndarray((n, n_fft), np.float32, phase, strides=(4 * hop, 4))
        kept = min(n + n_tail, ends[i] - rows.start)  # rows of x_i-1 still in ``signal``
        np.multiply(signal[rows.start : rows.start + kept], blend, out=accelerated[:kept])
        np.multiply(edges[i][: n + n_tail - kept], blend, out=accelerated[kept:])
        np.subtract(current[rows.start : rows.stop + n_tail], accelerated, out=accelerated)
        _analyze(frames, windows[i][n_tail : n_tail + n], phase)
        np.abs(phase, out=size)
        np.maximum(size, 1e-16, out=size)
        np.divide(mags[rows], size, out=size)
        np.multiply(phase, size, out=phase)
        emit(rows, i, phase)

    def finish():
        # A later slab's first n_tail rows add the last n_tail frames of
        # the slab before it and are divided.  Every slab of a cut into
        # several has more than n_tail frames (see spectral._slabs), so no
        # older slab's frames reach them.  Then the padding becomes the
        # reflection of the signal.
        for i in range(1, len(slabs)):
            start = slabs[i].start
            rows = slice(start, start + n_tail)
            _add_chunks(signal, rows, windows[i - 1][:n_tail], start - n_tail)
            np.divide(signal[rows], table[row_of[rows]], out=signal[rows])
        flat = signal.reshape(-1)
        if length > pad:
            flat[:pad] = flat[2 * pad : pad : -1]
            flat[pad + length : length + n_fft] = flat[pad + length - 2 : length - 2 : -1]
        else:  # np.pad reflects again off the far end
            flat[: length + n_fft] = np.pad(flat[pad : pad + length], pad, mode="reflect")

    with _block_pool(n_frames, _BLOCK, *scratch) as (run, slabs):
        # Per slab: the last n_tail frames before a block, then the block's.
        windows = np.empty((len(slabs), n_tail + _BLOCK, n_fft), dtype=np.float32)
        # Per slab: the end of its rows of a signal buffer, and the n_tail
        # rows past them, which the next slab's first block writes over.
        ends = [slab.stop for slab in slabs[:-1]] + [n_rows]
        edges = np.empty((len(slabs), n_tail, hop), dtype=np.float32)
        # The start: frame 0's phase is -pi*k, and frame t's is frame
        # t - 1's times its turn (see _follow).  Per slab: the phase of the
        # next frame its blocks synthesize, and a scratch row.  The calling
        # thread chains the frames before the last slab, a block at a time
        # in slab 0's window of frames (unused until the first synthesis),
        # for each later slab's first phase.
        carry = np.empty((len(slabs), 2, n_bins), dtype=np.complex64)
        carry[0, 0] = 1.0
        carry[0, 0, 1::2] = -1.0
        chain = windows[0].reshape(-1).view(np.complex64)[: _BLOCK * n_bins].reshape(_BLOCK, n_bins)
        for i, slab in enumerate(slabs[:-1]):
            carry[i + 1, 0] = carry[i, 0]
            for lo in range(slab.start, slab.stop, _BLOCK):
                turns = chain[: min(_BLOCK, slab.stop - lo)]
                _peak_turns(mags[lo : lo + len(turns)], step, turns)
                _follow(turns, carry[i + 1])
        signal = halves[(1 - cfg.n_iters) % 2]
        run(synthesize)
        finish()
        for i in range(cfg.n_iters):
            current, signal = signal, halves[(i - cfg.n_iters) % 2]
            for k, stop in enumerate(ends[:-1]):
                edges[k] = signal[stop : stop + n_tail]
            run(iterate)
            finish()

    # The limiter's scale is applied in float64 as the samples widen, so
    # no float32 rounding can lift a sample above the limit.  Sample j
    # widens into bytes 8j to 8j + 8 of the array, before the upper half
    # that it comes from; each piece ends before its first source sample.
    narrow = signal.reshape(-1)[pad : pad + length]
    peak = float(max(narrow.max(), -narrow.min()))
    scale = _PEAK_LIMIT / peak if peak > _PEAK_LIMIT else 1.0
    out = halves.reshape(-1).view(np.float64)[:length]
    source = n_rows * hop + pad  # the float32 index of sample 0
    start = 0
    while start < length:
        stop = min(length, (source + start) // 2)
        np.multiply(narrow[start:stop], scale, out=out[start:stop], dtype=np.float64)
        start = stop
    return Waveform(_Owned(out), spectral_cfg.sample_rate)


def reconstruct_from_mel(m: MelSpectrogram, glcfg: GriffinLimConfig) -> Waveform:
    """Mel to waveform: invert the filterbank, then run Griffin-Lim.

    Output is at m.config.sample_rate with (n_frames - 1) * hop_size
    samples.
    """
    return griffin_lim(mel_to_linear(m, mel_filterbank(m.config)), glcfg)


def command_words(command: str) -> list[str]:
    """The words of an external vocoder ``command``, as shlex splits them.

    ValueError unless it holds both {mel} and {wav} and its quotes close.
    """
    if "{mel}" not in command or "{wav}" not in command:
        raise ValueError(f"vocoder command {command!r} must contain {{mel}} and {{wav}}")
    try:
        return shlex.split(command)
    except ValueError as exc:  # an unclosed quote, or an escape at the end
        raise ValueError(f"vocoder command {command!r}: {exc}") from None


def external_vocoder(m: MelSpectrogram, command: str) -> Waveform:
    """Hand a mel-spectrogram to an external synthesis command.

    ``command`` is a shell-less invocation template containing the
    placeholders {mel} and {wav} (see command_words); the mel is written
    as a MELF file to a fresh temp directory, the command runs with both
    placeholders substituted, and the WAV it writes is read back
    (resampled to m.config.sample_rate when the command produced a
    different rate).
    A command still running after EXTERNAL_VOCODER_TIMEOUT seconds is
    killed and raises VocoderProcessFailure.
    """
    words = command_words(command)
    with tempfile.TemporaryDirectory(
        prefix="sraug-vocoder-", ignore_cleanup_errors=True
    ) as tmpdir:
        mel_path = Path(tmpdir) / "in.melf"
        wav_path = Path(tmpdir) / "out.wav"
        write_melf(mel_path, m)
        argv = [w.replace("{mel}", str(mel_path)).replace("{wav}", str(wav_path)) for w in words]
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
