"""STFT analysis/synthesis, mel filterbank, log-mel extraction and inversion.

Conventions used throughout:

* matrices are time-major: shape [n_frames, n_bins];
* analysis is center-aligned: the signal is reflect-padded by n_fft/2 on
  each side, so frame k is centered on sample k*hop of the original;
* log-mels are the natural log of magnitude-domain mel energies, floored
  at ``log_floor`` before the log and at most ln ``mel_ceiling``.
"""

from __future__ import annotations

import math
import os
import struct
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache, partial
from typing import ClassVar

import numpy as np

from .audio_io import Waveform, _frozen_array, _integer, _Owned, read_bytes, write_atomic
from .errors import ConfigMismatch, MalformedContainer, UnsupportedFormat

_MELF_MAGIC = b"MELF"
_MELF_VERSION = 1
_MELF_HEADER = struct.Struct("<4sIIIII")

# Tolerance when checking log-mel values against the floor and the
# ceiling; covers float32 round-trips through the MELF container.
_FLOOR_SLACK = 1e-4

_NNLS_ITERS = 50
_NNLS_EPS = 1e-18
# Frames per block of the mel analysis and of NNLS.  A mel block's
# arrays (1.6 MB) stay in a 2 MB L2 cache.  An NNLS block's (1.1 MB of
# float32 with its rows of the solution) stay there for all 50 updates,
# and each of its tile products is one np.matmul of 32 gemms.  np.matmul
# lets go of the interpreter lock only while its gemms run, so shorter
# calls from two slab threads wait on each other: on 31 s of frames and
# two slab threads of a 2-core x86-64 box, float64 NNLS took 0.16 ms a
# frame in 64-frame blocks and 0.13 in 128-frame blocks.
_MEL_BLOCK = 64
_NNLS_BLOCK = 128

# _tiled_matmul runs every product as 4-row gemms over _TILES tiles.  Of
# any 80 x 641 weights, the only shape mel_to_linear takes, a tile spans
# at most 12,880 inner x output columns (80 x 161), under the 65,536 above
# which OpenBLAS splits a 4-row gemm over its threads.  4 runs of columns
# of equal width cut the default filterbank's products to 13,200 (x W^T)
# and 13,769 (m W) of 51,280 multiply-adds a row.  The cheapest
# cut into 4 runs, found by dynamic programming, leaves 11,894 and
# 11,923, but NNLS took 0.111 and 0.117 ms a frame with it against 0.120
# and 0.122 with equal runs (medians of two sets of 20 alternating runs
# on 31 s at 2 slab threads of a 2-core x86-64 box): a gap within the
# runs' spread in the second set, and at most 1% of the stage time.
# Cheapest cuts into 6 or 8 tiles leave fewer still, but their shorter
# gemms made NNLS no clearly faster on 128-frame blocks, and 8 tiles
# made it slower on 64-frame ones.
_GEMM_ROWS = 4
_TILES = 4

# Slab threads in this process; None uses every available CPU.
_threads: int | None = None
# Fewest rows per slab: a second slab starts at 768 rows (15.4 s at
# 16 kHz), and n rows get at most n // 384 slabs on any CPU count.  Below
# that a second slab thread saved no time, and its block buffers and
# malloc arena cost memory.  Time on 2 slab threads over time on 1,
# medians of 9 alternating calls on perfbench voices (Griffin-Lim at 30
# iterations), 2-core x86-64:
#
#   seconds  frames   mel   NNLS   Griffin-Lim
#      2      101    1.77   1.30   1.10
#      4      201    1.42   0.98   0.98
#      6      301    1.90   1.43   1.29
#      8      401    1.46   1.03   1.07
#     12      601    1.20   1.03   1.08
#     14      701    1.28   1.04   0.97
#     15      751    1.22   0.99   1.02  (0.72, 0.67, 0.77 in a second run)
#     16      801    0.81   0.80   0.80
#     20     1001    0.72   0.77   0.69
#     40     2001    0.85   0.67   0.68
#
# The crossover lies between 701 and 801 frames, where Griffin-Lim's
# magnitudes and signal array pass 4 MB; it may lie elsewhere on a box
# with other caches.
_MIN_SLAB_ROWS = 384


@dataclass(frozen=True)
class SpectralConfig:
    """The one analysis of every spectral value; it has no settings.

    All parameters are class constants: a periodic Hann window of
    ``n_fft`` samples every ``hop_size`` samples at ``sample_rate``, and
    ``n_mels`` bands from ``fmin`` to ``fmax`` floored at ``log_floor``.
    A MELF header stores hop_size, n_mels and sample_rate, and read_melf
    refuses other values.

    Magnitudes are at most ``mag_ceiling`` and mel energies at most
    ``mel_ceiling``.  Float32 tops out near 2**128, and an FFT or a
    filterbank product sums hundreds of values, so single-precision
    Griffin-Lim holds magnitudes up to 2**64.  The mel ceiling sits 2**16
    lower because the NNLS solution can exceed its target: over a million
    random mel frames its largest magnitude was at most 59 times the
    largest mel energy.  A full-scale signal's log-mels stay below 4.
    """

    hop_size: ClassVar[int] = 320  # divides n_fft
    n_mels: ClassVar[int] = 80
    sample_rate: ClassVar[int] = 16000
    n_fft: ClassVar[int] = 1280
    n_bins: ClassVar[int] = n_fft // 2 + 1  # one-sided FFT bins
    fmin: ClassVar[float] = 0.0
    fmax: ClassVar[float] = 8000.0
    log_floor: ClassVar[float] = 1e-5
    mel_ceiling: ClassVar[float] = 2.0**48
    mag_ceiling: ClassVar[float] = 2.0**64


@dataclass(frozen=True)
class ComplexSpectrogram:
    """Complex STFT frames, [n_frames, n_fft/2+1]."""

    values: np.ndarray

    def __post_init__(self):
        values = _frozen_array(self.values, np.complex128, (None, SpectralConfig.n_bins), "values")
        object.__setattr__(self, "values", values)

    @property
    def n_frames(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class LinearSpectrogram:
    """Magnitude frames, [n_frames, n_fft/2+1], float32, from 0 to ``mag_ceiling``.

    A caller's float32 ``mags`` are checked as they are, since widening
    them would change no value; others are checked in float64, which holds
    any finite size, and then rounded to float32 once.  An _Owned float32
    array is taken over without a copy.
    """

    mags: np.ndarray

    def __post_init__(self):
        cfg = SpectralConfig
        dtype = np.float32 if getattr(self.mags, "dtype", None) == np.float32 else np.float64
        mags = _frozen_array(self.mags, dtype, (None, cfg.n_bins), "mags", 0.0, cfg.mag_ceiling)
        if mags.dtype != np.float32:
            mags = mags.astype(np.float32)
            mags.flags.writeable = False
        object.__setattr__(self, "mags", mags)

    @property
    def n_frames(self) -> int:
        return self.mags.shape[0]


@dataclass(frozen=True)
class MelSpectrogram:
    """Log-mel frames, [n_frames, n_mels], from ln(log_floor) to ln(mel_ceiling)."""

    logmels: np.ndarray
    config: SpectralConfig

    def __post_init__(self):
        floor = math.log(self.config.log_floor) - _FLOOR_SLACK
        ceiling = math.log(self.config.mel_ceiling) + _FLOOR_SLACK
        shape = (None, self.config.n_mels)
        logmels = _frozen_array(self.logmels, np.float64, shape, "logmels", floor, ceiling)
        object.__setattr__(self, "logmels", logmels)

    @property
    def n_frames(self) -> int:
        return self.logmels.shape[0]


# ---------------------------------------------------------------------------
# slab threads and row products
#
# mel_spectrogram, mel_to_linear and griffin_lim each walk their frames
# in blocks through _block_pool: contiguous slabs (see _slabs), one
# thread a slab, on a pool of their own.  Frames go through the same
# operations in any slab, and overlap-added rows sum their frames in one
# order (see _add_chunks), so output bytes do not depend on the number of
# slab threads; through _tiled_matmul, not on the number of BLAS threads
# either.


def available_cpus() -> int:
    """Number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _set_threads(n: int) -> None:
    """Run later mel_spectrogram, mel_to_linear and griffin_lim calls on ``n`` threads.

    The initializer of pipeline's worker pools; without a call, they use
    every available CPU in this process.
    """
    global _threads
    _threads = _integer(n, "threads", 1)


def _slabs(n_rows: int) -> list[slice]:
    """Contiguous slabs of ``n_rows`` rows, one per slab thread.

    There are max(1, min(slab threads, n_rows // _MIN_SLAB_ROWS)) slabs,
    so fewer than 2 x _MIN_SLAB_ROWS rows make one slab, which runs on
    the calling thread.  Every cut between two falls on a multiple of 4
    rows, so no 4-row group of _tiled_matmul straddles two slabs.
    """
    n_groups = -(-n_rows // _GEMM_ROWS)
    n_slabs = max(1, min(_threads or available_cpus(), n_rows // _MIN_SLAB_ROWS))
    cuts = [min(n_rows, _GEMM_ROWS * (n_groups * i // n_slabs)) for i in range(n_slabs + 1)]
    return [slice(lo, hi) for lo, hi in zip(cuts, cuts[1:])]


@contextmanager
def _block_pool(n_rows: int, block: int, *scratch):
    """Yield ``(run, slabs)``; ``run(fn)`` calls ``fn(rows, i, *buffers)`` on every block.

    The one place ``n_rows`` rows are cut into ``slabs`` (see _slabs); ``i``
    is the index of the slab ``rows`` lies in.  Each slab is cut into
    slices ``rows`` of ``block`` rows from its first row, the last one
    maybe shorter.  ``scratch`` holds one ``(width, dtype)`` per buffer.
    Each slab has its own arrays of ``width`` columns and as many rows as
    the shorter of ``block`` and the longest slab, allocated on the
    calling thread (arrays allocated on the slab threads would grow their
    own malloc arenas and peak memory), and ``fn`` gets their first
    ``len(rows)`` rows.  A single slab, which is every cut of fewer than
    2 x _MIN_SLAB_ROWS rows, runs on the calling thread and starts no
    thread; several run on a pool of one thread a slab, whose threads end
    with the ``with`` block, so pool workers may fork.
    """
    slabs = _slabs(n_rows)
    block_rows = min(block, max(s.stop - s.start for s in slabs))
    buffers = [np.empty((len(slabs), block_rows, width), dtype) for width, dtype in scratch]

    def walk(fn, i, *slab_buffers):
        for lo in range(slabs[i].start, slabs[i].stop, block):
            rows = slice(lo, min(lo + block, slabs[i].stop))
            fn(rows, i, *(b[: rows.stop - lo] for b in slab_buffers))

    with ThreadPoolExecutor(len(slabs)) as pool:

        def run(fn):
            each = pool.map if len(slabs) > 1 else map
            list(each(partial(walk, fn), range(len(slabs)), *buffers))

        yield run, slabs
    # ``run`` stays bound in the caller after the with block; the buffers go now.
    buffers.clear()


def _tiles(weights: np.ndarray) -> list[tuple[slice, slice]]:
    """The _TILES tiles ``(inner, columns)`` of [k, m] ``weights`` that hold all its non-zeros.

    The columns are cut into _TILES runs of equal width, up to one
    column, and each run's tile spans the inner rows from the first to the
    last non-zero of its columns.  For the default filterbank the x W^T
    tiles are groups of bands over the bins they touch, and the m W tiles
    groups of bins over the bands that touch them.
    """
    m = weights.shape[1]
    nonzero = weights != 0
    tiles = []
    for i in range(_TILES):
        cols = slice(m * i // _TILES, m * (i + 1) // _TILES)
        rows = np.flatnonzero(nonzero[:, cols].any(axis=1))
        inner = slice(int(rows[0]), int(rows[-1]) + 1) if rows.size else slice(0, 0)
        tiles.append((inner, cols))
    return tiles


def _tiled_matmul(weights: np.ndarray) -> Callable[[np.ndarray, np.ndarray], None]:
    """``matmul(a, out)``: ``a @ weights`` into ``out`` as stacked 4-row products over _tiles.

    ``a``'s row count is a multiple of 4, and ``out`` is C-contiguous with
    as many rows.  Each tile of ``weights`` is one np.matmul of ``a``'s
    rows grouped in fours from row 0, [n/4, 4, inner] @ [inner, columns],
    into its columns of ``out``; a tile over no inner rows writes zeros.
    Each gemm is too small for OpenBLAS to split over threads (which may
    round it differently), so every row of the result is rounded the
    same way whatever the BLAS thread count, the calling thread and the
    rows around it.
    """
    k, m = weights.shape
    tiles = [(inner, cols, weights[inner, cols]) for inner, cols in _tiles(weights)]

    def matmul(a: np.ndarray, out: np.ndarray) -> None:
        groups = a.reshape(-1, _GEMM_ROWS, k)
        out_groups = out.reshape(-1, _GEMM_ROWS, m)
        for inner, cols, tile in tiles:
            np.matmul(groups[:, :, inner], tile, out=out_groups[:, :, cols])

    return matmul


# ---------------------------------------------------------------------------
# windows and framing
#
# Analysis and synthesis work on frame buffers of shape [n_frames, n_fft];
# overlap-add sums frames in n_fft / hop chunks of a hop each.  stft/istft
# and Griffin-Lim share these helpers; Griffin-Lim passes buffers it
# reuses across iterations and overlap-adds a block of frames at a time
# into a range of rows.


# The analysis and synthesis window: a periodic Hann of n_fft samples.
_WINDOW = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(SpectralConfig.n_fft) / SpectralConfig.n_fft)
_WINDOW.flags.writeable = False
# Its single-precision copy, for Griffin-Lim's float32 frames.
_WINDOW32 = _WINDOW.astype(np.float32)
_WINDOW32.flags.writeable = False


def _frames(padded: np.ndarray) -> np.ndarray:
    """Read-only view of the hop-spaced n_fft-sample frames of a center-padded signal."""
    cfg = SpectralConfig
    return np.lib.stride_tricks.sliding_window_view(padded, cfg.n_fft)[:: cfg.hop_size]


def _analyze(frames: np.ndarray, scratch: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Windowed frames to spectrum: window ``frames`` into ``scratch``, rfft into ``out``.

    The window has ``scratch``'s precision, float32 or float64.
    """
    np.multiply(frames, _WINDOW32 if scratch.dtype == np.float32 else _WINDOW, out=scratch)
    return np.fft.rfft(scratch, SpectralConfig.n_fft, axis=1, out=out)


def _synthesize(values: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Spectrum to windowed frames: irfft each row into ``out``, window it again.

    The window has ``out``'s precision, float32 or float64.
    """
    np.fft.irfft(values, SpectralConfig.n_fft, axis=1, out=out)
    return np.multiply(out, _WINDOW32 if out.dtype == np.float32 else _WINDOW, out=out)


def _add_chunks(acc: np.ndarray, rows: slice, frames: np.ndarray, first: int) -> None:
    """Add frames ``first``, ``first + 1``, ... into rows ``rows`` of the overlap-add ``acc``.

    ``acc`` is [n_rows, hop]; chunk j of a frame, its samples j*hop to
    (j+1)*hop, goes to row (frame + j), for j = 0 to n_fft/hop - 1.  A
    row gets its chunks for j = 0, 1, ..., newest frame first, so summing
    a row's frames in pieces, the newer ones first, gives the bytes of
    one pass over all.
    """
    n_frames, n_fft = frames.shape
    hop = acc.shape[1]
    for j, start in enumerate(range(0, n_fft, hop)):
        lo = max(rows.start, first + j)
        hi = min(rows.stop, first + n_frames + j)
        if lo < hi:
            acc[lo:hi] += frames[lo - j - first : hi - j - first, start : start + hop]


def _sum_frames(frames: np.ndarray) -> np.ndarray:
    """Overlap-add [n_frames, n_fft] frames, trimmed of the center padding.

    Sums the frames chunk by chunk (see _add_chunks), one hop per row, and
    returns the (n_frames - 1) * hop_size samples after the first n_fft/2.
    """
    n_frames, n_fft = frames.shape
    hop = SpectralConfig.hop_size
    acc = np.zeros((n_frames + n_fft // hop - 1, hop))
    _add_chunks(acc, slice(0, len(acc)), frames, 0)
    pad = n_fft // 2
    return acc.reshape(-1)[pad : pad + (n_frames - 1) * hop]


def _window_sum(n_frames: int) -> np.ndarray:
    """The divisor that normalizes _sum_frames of n_frames synthesis frames.

    The overlap-added squared window over the trimmed output region; at a
    hop of a quarter window it lies between 1.25 and 1.5.
    """
    return _sum_frames(np.broadcast_to(_WINDOW**2, (n_frames, SpectralConfig.n_fft)))


# ---------------------------------------------------------------------------
# public operations


def _analysis_frames(w: Waveform, cfg: SpectralConfig) -> np.ndarray:
    """The _frames of ``w`` reflect-padded by n_fft/2; refuses another rate or no samples."""
    if w.sample_rate != cfg.sample_rate:
        raise ConfigMismatch(
            f"waveform at {w.sample_rate} Hz vs config {cfg.sample_rate} Hz"
        )
    if len(w) < 1:
        raise ValueError("cannot analyze an empty waveform")
    return _frames(np.pad(w.samples, cfg.n_fft // 2, mode="reflect"))


def stft(w: Waveform, cfg: SpectralConfig) -> ComplexSpectrogram:
    """Short-time Fourier transform with center alignment.

    The waveform is reflect-padded by n_fft/2 on each side and sliced into
    periodic-Hann-windowed frames every hop_size samples, giving
    floor(len/hop) + 1 frames.
    """
    frames = _analysis_frames(w, cfg)
    values = np.empty((frames.shape[0], cfg.n_bins), dtype=np.complex128)
    return ComplexSpectrogram(_Owned(_analyze(frames, np.empty(frames.shape), values)))


def istft(s: ComplexSpectrogram) -> Waveform:
    """Invert an STFT by normalized overlap-add.

    Frames are windowed again on synthesis and the result divided by the
    summed squared window, then the n_fft/2 center padding is trimmed:
    output length is (n_frames - 1) * hop_size.
    """
    cfg = SpectralConfig
    if s.n_frames < 2:
        return Waveform(np.zeros(0), cfg.sample_rate)
    denom = _window_sum(s.n_frames)
    frames = _synthesize(s.values, np.empty((s.n_frames, cfg.n_fft)))
    return Waveform(_Owned(_sum_frames(frames) / denom), cfg.sample_rate)


def hz_to_mel(f):
    """Map frequency in Hz to mels, 2595 * log10(1 + f/700)."""
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    """Inverse of hz_to_mel."""
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@cache
def mel_filterbank(cfg: SpectralConfig) -> np.ndarray:
    """Triangular mel filters as a read-only [n_mels, n_fft/2+1] matrix, built once per process.

    Centers lie strictly between fmin and fmax on the
    2595*log10(1 + f/700) scale; each filter is scaled by 2/bandwidth so
    filters carry comparable area regardless of width.  Every filter
    holds at least one FFT bin.  SpectralConfig instances are equal, so
    every call returns the array of the first.
    """
    fftfreqs = np.arange(cfg.n_bins) * (cfg.sample_rate / cfg.n_fft)
    hz_pts = mel_to_hz(np.linspace(hz_to_mel(cfg.fmin), hz_to_mel(cfg.fmax), cfg.n_mels + 2))
    fdiff = np.diff(hz_pts)
    ramps = hz_pts[:, None] - fftfreqs[None, :]
    lower = -ramps[:-2] / fdiff[:-1][:, None]
    upper = ramps[2:] / fdiff[1:][:, None]
    weights = np.maximum(0.0, np.minimum(lower, upper))
    # Area normalization: scale each triangle by 2 / bandwidth in Hz.
    weights *= (2.0 / (hz_pts[2:] - hz_pts[:-2]))[:, None]
    weights.flags.writeable = False
    return weights


def mel_spectrogram(w: Waveform, cfg: SpectralConfig) -> MelSpectrogram:
    """Log-mel analysis: ln(max(filterbank @ |stft|, log_floor)).

    The filterbank is applied to magnitude (not power) spectra.  The
    result is handed to the MelSpectrogram without a copy.  The frames,
    padded with zero magnitude frames to a multiple of 4, are
    analyzed in 64-frame blocks on the slab threads (see _block_pool and
    _set_threads), so no array spans every frame's spectrum.  Each frame
    goes through the operations of stft, and the filterbank product is a
    stack of 4-row gemms over tiles of the filterbank, grouped from frame
    0 (see _tiled_matmul), so the output bytes do not depend on the slab
    or BLAS thread counts.
    """
    frames = _analysis_frames(w, cfg)
    filter_mags = _tiled_matmul(mel_filterbank(cfg).T)
    n_frames = frames.shape[0]
    # Whole 4-row groups of frames, so no product falls back to gemv.
    padded = -(-n_frames // _GEMM_ROWS) * _GEMM_ROWS
    mel = np.empty((padded, cfg.n_mels))

    def analyze(rows, _, windowed, spectrum, mags):
        n = min(rows.stop, n_frames) - rows.start
        _analyze(frames[rows.start : rows.start + n], windowed[:n], spectrum[:n])
        np.abs(spectrum[:n], out=mags[:n])
        mags[n:] = 0.0
        filter_mags(mags, mel[rows])

    scratch = (cfg.n_fft, np.float64), (cfg.n_bins, np.complex128), (cfg.n_bins, np.float64)
    with _block_pool(padded, _MEL_BLOCK, *scratch) as (run, _):
        run(analyze)
    logmels = mel[:n_frames]
    np.maximum(logmels, cfg.log_floor, out=logmels)
    return MelSpectrogram(_Owned(np.log(logmels, out=logmels)), cfg)


def mel_to_linear(m: MelSpectrogram, weights: np.ndarray) -> LinearSpectrogram:
    """Approximately invert a log-mel matrix to linear magnitudes.

    Solves, per frame, the non-negative least-squares problem
    min ||W x - exp(logmels)||^2 over x >= 0 with 50 multiplicative
    updates from x0 = W^T m, where W is the mel_filterbank ``weights``;
    weights of another shape than [n_mels, n_bins] raise ConfigMismatch.

    The solve runs in single precision: exp(logmels) and the weights are
    rounded to float32, and every product and update stays there.  The
    float32 solution becomes the result's ``mags``, without a copy.

    The frames are padded with zero frames, which solve to 0, to a
    multiple of 4 and solved in 128-frame blocks on the slab threads (see
    _block_pool and _set_threads).  Every product is a stack of 4-row
    gemms over tiles of the filterbank's non-zeros (see _tiled_matmul),
    grouped in fours from frame 0 whatever the slabs.  So the output
    bytes do not depend on the slab or BLAS thread counts.
    """
    weights = _frozen_array(weights, np.float32, (None, None), "weights")
    n_mels, n_bins = m.config.n_mels, m.config.n_bins
    if weights.shape != (n_mels, n_bins):
        raise ConfigMismatch(f"mel needs a {n_mels} x {n_bins} filterbank, got {weights.shape}")
    apply_w, apply_wt = _tiled_matmul(weights.T), _tiled_matmul(weights)
    n_frames = m.n_frames
    # Whole 4-row groups of frames, so no product falls back to gemv.
    padded = -(-n_frames // _GEMM_ROWS) * _GEMM_ROWS
    target = np.zeros((padded, n_mels), dtype=np.float32)
    np.exp(m.logmels, out=target[:n_frames])
    x = np.empty((padded, n_bins), dtype=np.float32)

    def solve(rows, _, numer, denom, mixed):
        # numer is W^T m; denom is W^T W x, then the update factor; mixed is W x.
        xb = x[rows]
        apply_wt(target[rows], numer)
        xb[:] = numer
        for _ in range(_NNLS_ITERS):
            apply_w(xb, mixed)
            apply_wt(mixed, denom)
            denom += _NNLS_EPS
            np.divide(numer, denom, out=denom)
            xb *= denom

    scratch = (n_bins, np.float32), (n_bins, np.float32), (n_mels, np.float32)
    with _block_pool(padded, _NNLS_BLOCK, *scratch) as (run, _):
        run(solve)
    return LinearSpectrogram(_Owned(x[:n_frames]))


# ---------------------------------------------------------------------------
# MELF container


def write_melf(path, m: MelSpectrogram) -> None:
    """Serialize a MelSpectrogram to the MELF binary container.

    Layout: magic "MELF", then u32 version=1, n_frames, n_bins,
    sample_rate, hop_size (little-endian), then the frames as row-major
    (time-major) IEEE-754 float32.  Byte-for-byte reproducible; written
    atomically.
    """
    header = _MELF_HEADER.pack(
        _MELF_MAGIC,
        _MELF_VERSION,
        m.n_frames,
        m.config.n_mels,
        m.config.sample_rate,
        m.config.hop_size,
    )
    write_atomic(path, [header, m.logmels.astype("<f4").tobytes()])


def read_melf(path) -> MelSpectrogram:
    """Read a MELF container written by write_melf.

    The container stores band count, sample rate and hop size; a header
    with other values than SpectralConfig's, or of another version, raises
    UnsupportedFormat naming the field.  A payload that MelSpectrogram
    rejects raises MalformedContainer.
    """
    blob = read_bytes(path)
    if len(blob) < _MELF_HEADER.size:
        raise MalformedContainer(f"{path}: too short for a MELF header")
    magic, version, n_frames, *settings = _MELF_HEADER.unpack_from(blob)
    if magic != _MELF_MAGIC:
        raise MalformedContainer(f"{path}: bad magic {magic!r}")
    if version != _MELF_VERSION:
        raise UnsupportedFormat(f"{path}: MELF version {version}")
    for name, value in zip(("n_mels", "sample_rate", "hop_size"), settings):
        if value != (want := getattr(SpectralConfig, name)):
            raise UnsupportedFormat(f"{path}: MELF {name} {value}; sraug reads only {want}")
    cfg = SpectralConfig()
    expected = n_frames * cfg.n_mels * 4
    payload = blob[_MELF_HEADER.size :]
    if len(payload) != expected:
        raise MalformedContainer(
            f"{path}: expected {expected} data bytes, found {len(payload)}"
        )
    values = np.frombuffer(payload, dtype="<f4").reshape(n_frames, cfg.n_mels)
    try:
        return MelSpectrogram(values, cfg)
    except ValueError as exc:
        raise MalformedContainer(f"{path}: {exc}") from exc
