"""Mutated inputs: a damaged WAV file or augment config file raises only a
typed SraugError or a ValueError, never another exception."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sraug.audio_io import read_wav
from sraug.cli import _AUGMENT_SETTINGS, _read_config_file
from sraug.errors import SraugError

from test_audio_io import build_wav, extensible_fmt_ext

# One valid file of each layout read_wav accepts; every mutation starts
# from one of them.
_WAVS = [
    build_wav(struct.pack("<4h", 0, 1000, -1000, 32767)),
    build_wav(bytes(range(12)), channels=2, bits=24),
    build_wav(struct.pack("<3f", 0.25, -0.5, 1.0), fmt_tag=3, bits=32),
    build_wav(
        struct.pack("<4f", 0.25, -0.75, 1.0, 0.5),
        fmt_tag=0xFFFE,
        channels=2,
        bits=32,
        fmt_ext=extensible_fmt_ext(3, 32, 2),
    ),
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


@settings(max_examples=400, deadline=None)
@given(blob=mutated_config())
def test_mutated_config_raises_only_typed_errors(scratch, blob):
    path = scratch / "mutated.conf"
    path.write_bytes(blob)
    _typed_errors_only(_read_config_file, path)
