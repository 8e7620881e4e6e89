"""Command-line front end.

`sraug augment` runs the batch pipeline; the small subcommands expose
individual stages (mel extraction, resizing, reconstruction, pitch
tracking, pitch correlation, KL arithmetic) for scripting and debugging.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .audio_io import read_bytes, read_wav, resample, write_wav
from .errors import DimensionMismatch, MalformedContainer, SraugError
from .pipeline import MANIFEST_NAME, PipelineConfig, run
from .pitch_eval import PitchConfig, f0_pcc, write_f0_csv, yin_f0
from .spectral import SpectralConfig, mel_spectrogram, read_melf, write_melf
from .sr_ops import HORIZONTAL, VERTICAL, RatioRange, ResizeSpec, resize
from .vc_losses import DiagGaussian, kl_diag_gaussian
from .vocoder import GriffinLimConfig, reconstruct_from_mel

# augment settings: key -> (parser, default, help), read by the config file,
# the --flags and their merge; defaults come from the classes that own them.
_AUGMENT_SETTINGS = {
    "in": (str, None, "input file or directory"),
    "out": (str, None, "output directory"),
    "ratio_min": (float, RatioRange.lo, "low end of the ratio range"),
    "ratio_max": (float, RatioRange.hi, "high end of the ratio range"),
    "variants": (int, PipelineConfig.variants_per_file, "augmented copies per file"),
    "axis": (str, PipelineConfig.axis, f"resize axis, {VERTICAL} or {HORIZONTAL}"),
    "seed": (int, PipelineConfig.master_seed, "master seed"),
    "noise_std": (float, ResizeSpec.pad_noise_std, "padding noise scale (log-mel)"),
    "gl_iters": (int, GriffinLimConfig.n_iters, "Griffin-Lim iterations"),
    "vocoder_cmd": (str, None, "external vocoder template with {mel} {wav}"),
    "jobs": (int, 1, "parallel worker processes"),
}


def _strip_comment(line: str) -> str:
    """Cut a line at its ``#`` comment.

    A value that starts with a quote runs to the matching quote, and a
    ``#`` inside is part of it; any other ``#`` starts a comment.
    """
    key, _, value = line.partition("=")
    if "#" in key:
        return line[: line.index("#")]
    body = value.lstrip()
    start = body.find(body[0], 1) + 1 if body[:1] in ("'", '"') else 0
    cut = body.find("#", start)
    return line if cut < 0 else line[: len(line) - len(body) + cut]


def _read_config_file(path) -> dict:
    """Parse a key=value settings file (one pair per line, # comments).

    A ``#`` inside a value wrapped in single or double quotes is part of
    the value.  A file that is not UTF-8 raises MalformedContainer.
    """
    settings = {}
    try:
        text = read_bytes(path).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedContainer(f"{path}: not UTF-8 text ({exc})") from exc
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in _AUGMENT_SETTINGS:
            raise ValueError(f"{path}:{lineno}: unknown setting '{key}'")
        if len(value) >= 2 and value[0] == value[-1] and value[0] in "\"'":
            value = value[1:-1]
        try:
            settings[key] = _AUGMENT_SETTINGS[key][0](value)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {key}: {exc}") from None
    return settings


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sraug",
        description="Spectrogram-resize augmentation and pitch evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    aug = sub.add_parser("augment", help="augment a corpus of WAV files")
    for key, (parse, _, help_text) in _AUGMENT_SETTINGS.items():
        aug.add_argument("--" + key.replace("_", "-"), dest=key, type=parse, help=help_text)
    aug.add_argument("--config", help="key=value settings file; flags override it")

    mel = sub.add_parser("mel", help="extract a log-mel file from a WAV")
    mel.add_argument("wav")
    mel.add_argument("melf")

    rsz = sub.add_parser("resize", help="resize a log-mel file")
    rsz.add_argument("melf_in")
    rsz.add_argument("melf_out")
    rsz.add_argument("--ratio", type=float, required=True)
    rsz.add_argument("--seed", type=int, default=ResizeSpec.seed)
    rsz.add_argument("--axis", choices=(VERTICAL, HORIZONTAL), default=ResizeSpec.axis)
    rsz.add_argument("--noise-std", type=float, default=ResizeSpec.pad_noise_std)

    rec = sub.add_parser("reconstruct", help="waveform from a log-mel file")
    rec.add_argument("melf")
    rec.add_argument("wav")
    rec.add_argument("--gl-iters", type=int, default=GriffinLimConfig.n_iters)

    f0 = sub.add_parser("f0", help="YIN pitch track to CSV")
    f0.add_argument("wav")
    f0.add_argument("csv")

    pcc = sub.add_parser("f0pcc", help="F0 correlation between two WAVs")
    pcc.add_argument("wav_a")
    pcc.add_argument("wav_b")

    kl = sub.add_parser("kl", help="KL divergence of two diagonal Gaussians")
    kl.add_argument("q_json", help='JSON file with "mean" and "log_std" lists')
    kl.add_argument("p_json", help='JSON file with "mean" and "log_std" lists')

    return parser


def _cmd_augment(args) -> int:
    settings = {key: default for key, (_, default, _) in _AUGMENT_SETTINGS.items()}
    if args.config:
        settings.update(_read_config_file(args.config))
    flags = vars(args)
    settings.update({k: flags[k] for k in _AUGMENT_SETTINGS if flags[k] is not None})
    if not settings["in"] or not settings["out"]:
        print("augment needs --in and --out (flags or config file)", file=sys.stderr)
        return 2

    cfg = PipelineConfig(
        input=settings["in"],
        output_dir=settings["out"],
        ratio_range=RatioRange(settings["ratio_min"], settings["ratio_max"]),
        variants_per_file=settings["variants"],
        axis=settings["axis"],
        master_seed=settings["seed"],
        gl=GriffinLimConfig(n_iters=settings["gl_iters"]),
        vocoder_cmd=settings["vocoder_cmd"],
        pad_noise_std=settings["noise_std"],
    )
    manifest = run(cfg, jobs=settings["jobs"])
    print(
        f"wrote {len(manifest.records)} files, {len(manifest.failures)} failures, "
        f"manifest at {Path(settings['out']) / MANIFEST_NAME}"
    )
    for failure in manifest.failures:
        print(
            f"FAILED {failure['source_path']} at stage {failure['stage']}: "
            f"{failure['error']}",
            file=sys.stderr,
        )
    return 1 if manifest.failures else 0


def _cmd_mel(args) -> int:
    cfg = SpectralConfig()
    wave = resample(read_wav(args.wav), cfg.sample_rate)
    write_melf(args.melf, mel_spectrogram(wave, cfg))
    return 0


def _cmd_resize(args) -> int:
    mel = read_melf(args.melf_in)
    spec = ResizeSpec(
        ratio=args.ratio, axis=args.axis, pad_noise_std=args.noise_std, seed=args.seed
    )
    write_melf(args.melf_out, resize(mel, spec))
    return 0


def _cmd_reconstruct(args) -> int:
    mel = read_melf(args.melf)
    wave = reconstruct_from_mel(mel, GriffinLimConfig(n_iters=args.gl_iters))
    write_wav(args.wav, wave)
    return 0


def _cmd_f0(args) -> int:
    write_f0_csv(args.csv, yin_f0(read_wav(args.wav), PitchConfig()))
    return 0


def _cmd_f0pcc(args) -> int:
    value = f0_pcc(read_wav(args.wav_a), read_wav(args.wav_b), PitchConfig())
    print(f"{value:.6f}")
    return 0


def _load_gaussian(path) -> DiagGaussian:
    try:
        data = json.loads(read_bytes(path))
        return DiagGaussian(data["mean"], data["log_std"])
    # KeyError: a missing key; TypeError: a JSON list; ValueError: not UTF-8,
    # not JSON, or a vector DiagGaussian rejects; DimensionMismatch: two
    # vectors of different lengths.
    except (KeyError, TypeError, ValueError, DimensionMismatch) as exc:
        raise MalformedContainer(
            f'{path}: expected a JSON object with numeric "mean" and "log_std" '
            f"lists of one length ({exc})"
        ) from exc


def _cmd_kl(args) -> int:
    print(f"{kl_diag_gaussian(_load_gaussian(args.q_json), _load_gaussian(args.p_json)):.6f}")
    return 0


_COMMANDS = {
    "augment": _cmd_augment,
    "mel": _cmd_mel,
    "resize": _cmd_resize,
    "reconstruct": _cmd_reconstruct,
    "f0": _cmd_f0,
    "f0pcc": _cmd_f0pcc,
    "kl": _cmd_kl,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (SraugError, ValueError, OSError) as exc:
        print(f"sraug {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
