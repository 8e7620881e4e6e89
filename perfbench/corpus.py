"""Seeded, speech-like corpus generator for the benchmark.

Every utterance is synthesised at 16 kHz, band-limited below 7.6 kHz, and
then written at the file's own rate by exact FFT interpolation, so the
16 kHz rendering doubles as the reference the quality metrics compare
against.  Writers for 24-bit mono and 16-bit stereo live here because
``sraug.audio_io.write_wav`` writes only 16-bit mono.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SR = 16000
HOP = 320  # 20 ms; lengths are multiples of it so 22.05 kHz is exact
_BAND_EDGE = 7600.0
_FORMANTS = ((550.0, 110.0, 1.0), (1400.0, 160.0, 0.55), (2600.0, 240.0, 0.3))
_NOISE_FLOOR = 10.0 ** (-62.0 / 20.0)


@dataclass(frozen=True)
class Item:
    """One corpus file: where it goes and how it is encoded."""

    rel_path: str
    rate: int
    bits: int
    channels: int
    ref: np.ndarray  # the 16 kHz float rendering, before quantisation


def stratified(rng: np.random.Generator, n: int, lo: float, hi: float) -> np.ndarray:
    """n values in [lo, hi], one per stratum, the largest exactly hi, shuffled.

    Totals vary little from seed to seed and the longest file (which sets
    peak memory) not at all, while every other value still moves.
    """
    u = (np.arange(n) + rng.random(n)) / n
    u[-1] = 1.0
    return rng.permutation(lo + (hi - lo) * u)


def _voiced(rng, n: int, f0_base: float) -> np.ndarray:
    """Harmonic vowel with a pitch glide, vibrato and moving formants."""
    t = np.arange(n) / SR
    glide = np.exp(np.linspace(0.0, rng.uniform(-0.1, 0.1), n))
    vib = 1.0 + rng.uniform(0.01, 0.03) * np.sin(2 * np.pi * rng.uniform(4.0, 6.5) * t)
    f0 = f0_base * glide * vib
    phase = 2 * np.pi * np.cumsum(f0) / SR
    shift = rng.uniform(0.85, 1.2)
    sig = np.zeros(n)
    k = 1
    while k * f0.max() < _BAND_EDGE - 200.0:
        fk = k * f0
        color = sum(
            g * np.exp(-0.5 * ((fk - fc * shift) / bw) ** 2) for fc, bw, g in _FORMANTS
        )
        sig += (1.0 / k) * (1.0 + 1.5 * color) * np.sin(k * phase)
        k += 1
    return sig / np.max(np.abs(sig))


def _fricative(rng, n: int) -> np.ndarray:
    """Hiss burst shaped by a broad high-frequency bump."""
    spec = np.fft.rfft(rng.standard_normal(n))
    f = np.fft.rfftfreq(n, 1.0 / SR)
    spec *= np.exp(-0.5 * ((f - rng.uniform(3500.0, 5500.0)) / 1200.0) ** 2)
    sig = np.fft.irfft(spec, n)
    return 0.35 * sig / np.max(np.abs(sig))


def utterance(rng: np.random.Generator, seconds: float, f0_base: float) -> np.ndarray:
    """Voiced glides, fricative bursts and short pauses over a noise floor.

    The length is rounded to a whole hop; the result is band-limited
    below 7.6 kHz with raised-cosine edges, so it can be written at any
    of the benchmark's rates without aliasing.
    """
    n_total = max(1, round(seconds * SR / HOP)) * HOP
    parts = [np.zeros(int(0.08 * SR))]
    used = parts[0].size
    while used < n_total:
        kind = rng.random()
        if kind < 0.65:
            seg = _voiced(rng, int(rng.uniform(0.25, 0.7) * SR), f0_base)
        elif kind < 0.85:
            seg = _fricative(rng, int(rng.uniform(0.06, 0.15) * SR))
        else:
            seg = np.zeros(int(rng.uniform(0.05, 0.15) * SR))
        edge = min(int(0.015 * SR), seg.size // 2)
        if edge:
            ramp = 0.5 - 0.5 * np.cos(np.pi * np.arange(edge) / edge)
            seg[:edge] *= ramp
            seg[-edge:] *= ramp[::-1]
        parts.append(seg)
        used += seg.size
    sig = np.concatenate(parts)[:n_total]
    sig[-int(0.06 * SR):] = 0.0
    sig = 0.5 * sig + _NOISE_FLOOR * rng.standard_normal(n_total)
    spec = np.fft.rfft(sig)
    spec[np.fft.rfftfreq(n_total, 1.0 / SR) >= _BAND_EDGE] = 0.0
    return np.fft.irfft(spec, n_total)


def render(ref: np.ndarray, rate: int) -> np.ndarray:
    """The band-limited 16 kHz signal at another rate (FFT interpolation)."""
    if rate == SR:
        return ref
    n_out = ref.size * rate // SR
    spec = np.fft.rfft(ref)
    out = np.zeros(n_out // 2 + 1, dtype=complex)
    out[: spec.size - 1] = spec[:-1]  # drop the 8 kHz bin; it is zero anyway
    return np.fft.irfft(out, n_out) * (n_out / ref.size)


def _pcm_bytes(x: np.ndarray, bits: int) -> bytes:
    scale = 2.0 ** (bits - 1)
    ints = np.clip(np.round(x * scale), -scale, scale - 1).astype(np.int64)
    if bits == 16:
        return ints.astype("<i2").tobytes()
    b = (ints & 0xFFFFFF).astype("<u4").view(np.uint8).reshape(-1, 4)[:, :3]
    return b.tobytes()


def wav_bytes(x: np.ndarray, rate: int, bits: int, fmt_tag: int = 1) -> bytes:
    """RIFF/WAVE bytes for frames x of shape [n] or [n, channels]."""
    frames = x.reshape(x.shape[0], -1)
    channels = frames.shape[1]
    data = _pcm_bytes(frames.reshape(-1), bits)
    block = channels * bits // 8
    fmt = struct.pack("<HHIIHH", fmt_tag, channels, rate, rate * block, block, bits)
    body = b"WAVE" + b"fmt " + struct.pack("<I", 16) + fmt
    body += b"data" + struct.pack("<I", len(data)) + data
    return b"RIFF" + struct.pack("<I", len(body)) + body


def item_bytes(item: Item) -> bytes:
    """The item's WAV file: its signal at its rate, bit depth and channels."""
    x = render(item.ref, item.rate)
    if item.channels == 2:
        # Opposite-signed side signal: the mono downmix is x again.
        side = 0.05 * np.sin(2 * np.pi * 310.0 * np.arange(x.size) / item.rate)
        x = np.stack([x + side, x - side], axis=1)
    return wav_bytes(x, item.rate, item.bits)


def corrupt_files(rng: np.random.Generator) -> dict[str, bytes]:
    """Two files the program must reject at stage 'read'.

    One has a data chunk cut short; the other declares MPEG Layer 3
    (format tag 0x0055), which the reader does not decode.
    """
    x = 0.1 * rng.standard_normal(SR // 2)
    whole = wav_bytes(x, SR, 16)
    return {
        "spk_bad/bad_truncated.wav": whole[: len(whole) - 4000],
        "spk_bad/bad_mp3tag.wav": wav_bytes(x, SR, 16, fmt_tag=0x0055),
    }


def write_corpus(root: Path, items: list[Item], extra: dict[str, bytes]) -> None:
    """Write every item, and every extra file by relative path, under root."""
    blobs = [(it.rel_path, item_bytes(it)) for it in items] + list(extra.items())
    for rel, blob in blobs:
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(blob)
