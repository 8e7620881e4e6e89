"""Waveform reconstruction from spectrograms.

Griffin-Lim phase recovery (with momentum) is the built-in route; an
external command hook lets a real neural vocoder take over when one is
available.
"""

from __future__ import annotations

import shlex
import shutil
import subprocess
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .audio_io import Waveform, read_wav, resample
from .errors import VocoderOutputMissing, VocoderProcessFailure
from .spectral import (
    LinearSpectrogram,
    MelSpectrogram,
    _istft_raw,
    _stft_raw,
    mel_filterbank,
    mel_to_linear,
    write_melf,
)

EXTERNAL_VOCODER_TIMEOUT = 120.0
_PEAK_LIMIT = 0.95
_MOMENTUM = 0.99


@dataclass(frozen=True)
class GriffinLimConfig:
    """Phase-recovery parameters: the number of Griffin-Lim iterations."""

    n_iters: int = 60

    def __post_init__(self):
        if self.n_iters < 1:
            raise ValueError("n_iters must be >= 1")


def griffin_lim(s: LinearSpectrogram, cfg: GriffinLimConfig) -> Waveform:
    """Recover a waveform whose STFT magnitudes approximate ``s``.

    Fast Griffin-Lim (Perraudin et al. 2013): starting from zero phase in
    every bin, alternate istft/stft projections, keeping only the phase of
    each projection (accelerated by a 0.99 momentum term) and reimposing
    the target magnitudes.  The final waveform is scaled down to a 0.95
    peak if it comes out louder.
    """
    mags = s.mags
    spectral_cfg = s.config
    if mags.shape[0] < 2:
        # Fewer than two frames synthesize zero samples after trimming.
        return Waveform(np.zeros(0), spectral_cfg.sample_rate)

    angles = np.ones_like(mags, dtype=np.complex128)
    previous = np.zeros_like(mags, dtype=np.complex128)
    blend = _MOMENTUM / (1.0 + _MOMENTUM)
    for _ in range(cfg.n_iters):
        rebuilt = _stft_raw(_istft_raw(mags * angles, spectral_cfg), spectral_cfg)
        accelerated = rebuilt - blend * previous
        angles = accelerated / np.maximum(np.abs(accelerated), 1e-16)
        previous = rebuilt

    out = _istft_raw(mags * angles, spectral_cfg)
    peak = np.max(np.abs(out)) if out.size else 0.0
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
    tmpdir = Path(tempfile.mkdtemp(prefix="sraug-vocoder-"))
    try:
        mel_path = tmpdir / "in.melf"
        wav_path = tmpdir / "out.wav"
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
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    if out.sample_rate != m.config.sample_rate:
        out = resample(out, m.config.sample_rate)
    return out
