"""Mutated inputs: a damaged WAV, MELF or augment config file raises only a
typed SraugError or a ValueError, never another exception, a MELF file
that is read reconstructs to a finite waveform, and a real-valued setting
that is not a finite real number raises ValueError."""

import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sraug.audio_io import read_wav
from sraug.cli import _AUGMENT_SETTINGS, _read_config_file
from sraug.errors import SraugError
from sraug.spectral import SpectralConfig, read_melf
from sraug.sr_ops import RatioRange, ResizeSpec
from sraug.vocoder import GriffinLimConfig, reconstruct_from_mel

from test_audio_io import build_wav, extensible_fmt_ext

# One valid file of each layout read_wav accepts: PCM-16, PCM-24 and
# float-32, mono and stereo, each plain and WAVE_FORMAT_EXTENSIBLE.  Every
# mutation starts from one of them.
_PAYLOADS = {  # (format tag, bits): a payload of whole mono and stereo frames
    (1, 16): struct.pack("<4h", 0, 1000, -1000, 32767),
    (1, 24): bytes(range(12)),
    (3, 32): struct.pack("<4f", 0.25, -0.75, 1.0, 0.5),
}
_WAVS = [
    build_wav(payload, fmt_tag=fmt_tag, channels=channels, bits=bits, fmt_ext=fmt_ext)
    for (tag, bits), payload in _PAYLOADS.items()
    for channels in (1, 2)
    for fmt_tag, fmt_ext in [(tag, b""), (0xFFFE, extensible_fmt_ext(tag, bits, channels))]
] + [
    build_wav(
        struct.pack("<h", 12345), extra_chunks=b"LIST" + struct.pack("<I", 3) + b"abc\x00"
    ),
]

_CONFIG = b"""# augment settings
in = corpus
out = "out dir"
ratio_min = 0.9
ratio_max = 1.1  # upper end
variants = 2
axis = vertical
seed = 7
noise_std = 0.1
gl_iters = 3
jobs = 2
vocoder_cmd = 'voc {mel} {wav} # part of the value'
"""

_SIZE = st.one_of(
    st.sampled_from([0, 1, 2, 3, 15, 16, 17, 39, 40, 2**31 - 1, 2**32 - 1]),
    st.integers(0, 2**32 - 1),
)


def _chunk_layout(blob: bytes) -> tuple[list[int], list[int]]:
    """Offsets of every u32 size field and every chunk boundary of a valid WAV."""
    sizes, boundaries = [4], [12]
    pos = 12
    while pos + 8 <= len(blob):
        (size,) = struct.unpack_from("<I", blob, pos + 4)
        sizes.append(pos + 4)
        pos += 8 + size + (size & 1)
        boundaries.append(pos)
    return sizes, boundaries


@st.composite
def mutated_wav(draw) -> bytes:
    """A valid WAV with corrupt chunk sizes, inserted odd-sized chunks,
    flipped bytes and a truncation, each drawn or not."""
    base = draw(st.sampled_from(_WAVS))
    sizes, boundaries = _chunk_layout(base)
    blob = bytearray(base)
    for offset in draw(st.lists(st.sampled_from(sizes), max_size=3, unique=True)):
        struct.pack_into("<I", blob, offset, draw(_SIZE))
    chunk_ids = st.sampled_from([b"junk", b"LIST", b"fmt ", b"data"]) | st.binary(
        min_size=4, max_size=4
    )
    inserts = draw(st.lists(st.sampled_from(boundaries), max_size=2))
    for at in sorted(inserts, reverse=True):  # from the end, so offsets hold
        odd = 2 * draw(st.integers(0, 4)) + 1
        body = draw(st.binary(min_size=odd, max_size=odd))
        pad = b"\x00" if draw(st.booleans()) else b""
        blob[at:at] = draw(chunk_ids) + struct.pack("<I", len(body)) + body + pad
    for _ in range(draw(st.integers(0, 4))):
        index = draw(st.integers(0, len(blob) - 1))
        blob[index] ^= draw(st.integers(1, 255))
    if draw(st.booleans()):
        del blob[draw(st.integers(0, len(blob))) :]
    return bytes(blob)


# A valid MELF file of 4 frames: its header fields (magic, version,
# n_frames, n_mels, sample_rate, hop_size), then log-mels from the floor
# up to 3.
_MELF_HEADER = struct.Struct("<4sIIIII")
_MELF_FIELDS = (b"MELF", 1, 4, SpectralConfig.n_mels, SpectralConfig.sample_rate,
                SpectralConfig.hop_size)
_MELF_PAYLOAD = np.linspace(math.log(SpectralConfig.log_floor), 3.0, 4 * SpectralConfig.n_mels)
_TOP = math.log(SpectralConfig.mel_ceiling)
# Payload words: not finite, float32's largest, and log-mels far past and
# just either side of the ceiling.
_WORDS = st.sampled_from(
    [math.nan, math.inf, -math.inf, 3.4028234663852886e38, 800.0, _TOP - 1e-3, _TOP + 1e-3]
) | st.floats(width=32)


def _melf(fields=_MELF_FIELDS, words=()) -> bytes:
    """The valid MELF with header ``fields`` and ``(index, value)`` payload ``words``."""
    payload = _MELF_PAYLOAD.astype("<f4")
    for index, value in words:
        payload[index] = value
    return _MELF_HEADER.pack(*fields) + payload.tobytes()


@st.composite
def mutated_melf(draw) -> bytes:
    """The valid MELF with changed header fields and payload words, then
    a truncation or extra bytes, each drawn or not."""
    fields = list(_MELF_FIELDS)
    for index in draw(st.lists(st.integers(0, 5), max_size=2, unique=True)):
        fields[index] = draw(
            st.binary(min_size=4, max_size=4) if index == 0
            else st.sampled_from([0, 1, 2, 3, 5, 79, 81, 320, 16000, 2**32 - 1])
            | st.integers(0, 2**32 - 1)
        )
    words = draw(st.lists(st.tuples(st.integers(0, _MELF_PAYLOAD.size - 1), _WORDS), max_size=3))
    blob = _melf(fields, words)
    cut = draw(st.sampled_from(["none", "truncate", "extend"]))
    if cut == "truncate":
        blob = blob[: draw(st.integers(0, len(blob) - 1))]
    elif cut == "extend":
        blob += draw(st.binary(min_size=1, max_size=8))
    return blob


_LINE_TEXT = st.text(
    alphabet=st.sampled_from(list("ab01.-_ =#'\"\t{}") + ["é", "\x00", "\r", "\u2028", "٣"]),
    max_size=20,
)


@st.composite
def mutated_config(draw) -> bytes:
    """The valid config with random lines, inserted quotes, ``#`` and
    ``=``, and non-UTF-8 bytes, each drawn or not."""
    lines = _CONFIG.split(b"\n")
    for _ in range(draw(st.integers(0, 3))):
        key = draw(st.sampled_from(sorted(_AUGMENT_SETTINGS)) | _LINE_TEXT)
        line = draw(st.sampled_from(["{} = {}", "{}={}", "{}{}"])).format(key, draw(_LINE_TEXT))
        lines.insert(draw(st.integers(0, len(lines))), line.encode("utf-8"))
    blob = bytearray(b"\n".join(lines))
    pieces = st.sampled_from([b"'", b'"', b"#", b"=", b"\xff", b"\x80", b"\xc3", b"\xed\xa0\x80"])
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, len(blob)))
        blob[at:at] = draw(pieces)
    return bytes(blob)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("mutated")


def _typed_errors_only(reader, path) -> None:
    try:
        reader(path)
    except (SraugError, ValueError):
        pass


@settings(max_examples=400, deadline=None)
@given(blob=mutated_wav())
def test_mutated_wav_raises_only_typed_errors(scratch, blob):
    path = scratch / "mutated.wav"
    path.write_bytes(blob)
    _typed_errors_only(read_wav, path)


@settings(max_examples=300, deadline=None)
@given(blob=mutated_melf())
@example(blob=_melf(words=[(5, 800.0)]))
@example(blob=_melf(words=[(5, _TOP + 1e-3)]))
@example(blob=_melf(words=[(5, _TOP - 1e-3), (85, _TOP - 1e-3)]))
def test_mutated_melf_raises_only_typed_errors_or_reconstructs(scratch, blob):
    path = scratch / "mutated.melf"
    path.write_bytes(blob)
    try:
        mel = read_melf(path)
    except (SraugError, ValueError):
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        out = reconstruct_from_mel(mel, GriffinLimConfig(n_iters=2))
    assert np.isfinite(out.samples).all()


@settings(max_examples=400, deadline=None)
@given(blob=mutated_config())
def test_mutated_config_raises_only_typed_errors(scratch, blob):
    path = scratch / "mutated.conf"
    path.write_bytes(blob)
    _typed_errors_only(_read_config_file, path)


# The four real-valued settings, and values that are not finite real numbers.
_REAL_FIELDS = [
    (ResizeSpec, "ratio"),
    (ResizeSpec, "pad_noise_std"),
    (RatioRange, "lo"),
    (RatioRange, "hi"),
]
_NOT_REAL = st.one_of(
    st.text(),
    st.none(),
    st.complex_numbers(),
    st.sampled_from([math.nan, math.inf, -math.inf]),
)


@settings(max_examples=400, deadline=None)
@given(field=st.sampled_from(_REAL_FIELDS), value=_NOT_REAL)
def test_bad_real_setting_raises_value_error_naming_it(field, value):
    cls, name = field
    kwargs = {"ratio": 1.0} if cls is ResizeSpec else {}
    kwargs[name] = value
    with pytest.raises(ValueError, match=f"^{name} must be a finite real number"):
        cls(**kwargs)
