"""WAV container parsing/writing, the Waveform type, and resampling."""

import ast
import math
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sraug
from sraug.audio_io import (
    Waveform,
    _kaiser,
    _round_half_up,
    read_bytes,
    read_wav,
    resample,
    write_atomic,
    write_wav,
)
from sraug.errors import IoFailure, MalformedContainer, UnsupportedFormat

import synth


def build_wav(
    payload: bytes,
    *,
    fmt_tag: int = 1,
    channels: int = 1,
    rate: int = 16000,
    bits: int = 16,
    extra_chunks: bytes = b"",
    fmt_ext: bytes = b"",
) -> bytes:
    """Assemble RIFF/WAVE bytes by hand so parser tests control every field.

    fmt_ext is appended to the 16-byte fmt chunk body as is.
    """
    block_align = channels * bits // 8
    fmt = struct.pack(
        "<HHIIHH", fmt_tag, channels, rate, rate * block_align, block_align, bits
    )
    fmt += fmt_ext
    body = extra_chunks
    body += b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"data" + struct.pack("<I", len(payload)) + payload
    return b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body


KSDATAFORMAT_TAIL = bytes.fromhex("000000001000800000aa00389b71")


def extensible_fmt_ext(sub_tag: int, bits: int, channels: int, tail=KSDATAFORMAT_TAIL):
    """The 24 bytes WAVE_FORMAT_EXTENSIBLE adds to fmt: cbSize, valid bits,
    channel mask and the sub-format GUID (tag + fixed tail)."""
    mask = 0x4 if channels == 1 else 0x3  # front centre / front left+right
    return struct.pack("<HHIH", 22, bits, mask, sub_tag) + tail


# ---------------------------------------------------------------------------
# Waveform type


def test_waveform_copies_and_freezes():
    arr = np.zeros(4)
    w = Waveform(arr, 16000)
    arr[0] = 5.0  # caller's array must stay independent
    assert w.samples[0] == 0.0
    with pytest.raises(ValueError):
        w.samples[0] = 1.0
    assert arr.flags.writeable  # and the caller's array is not frozen


def test_waveform_validation():
    with pytest.raises(ValueError):
        Waveform(np.array([0.0, np.nan]), 16000)
    with pytest.raises(ValueError):
        Waveform(np.zeros((2, 2)), 16000)
    with pytest.raises(ValueError):
        Waveform(np.zeros(4), 0)
    with pytest.raises(ValueError):
        Waveform(np.zeros(4), 16000.0)


def test_waveform_len_and_duration():
    w = Waveform(np.zeros(8000), 16000)
    assert len(w) == 8000
    assert w.duration == 0.5


# ---------------------------------------------------------------------------
# reading


def test_read_pcm16_silence(tmp_path):
    blob = build_wav(b"\x00\x00" * 16000)
    path = tmp_path / "silence.wav"
    path.write_bytes(blob)
    w = read_wav(path)
    assert w.sample_rate == 16000
    assert len(w) == 16000
    assert not w.samples.any()


def test_pcm16_full_scale_negative(tmp_path):
    path = tmp_path / "min.wav"
    path.write_bytes(build_wav(struct.pack("<h", -32768)))
    assert read_wav(path).samples[0] == -1.0


def test_stereo_averages_to_mono(tmp_path):
    payload = struct.pack("<hh", 16384, -16384)  # +0.5 and -0.5
    path = tmp_path / "stereo.wav"
    path.write_bytes(build_wav(payload, channels=2))
    w = read_wav(path)
    assert len(w) == 1
    assert w.samples[0] == 0.0


def test_pcm24_sign_extension(tmp_path):
    # -2^23, +2^23-1, 0: scaling is by 2^23.
    payload = b"\x00\x00\x80" + b"\xff\xff\x7f" + b"\x00\x00\x00"
    path = tmp_path / "deep.wav"
    path.write_bytes(build_wav(payload, bits=24))
    w = read_wav(path)
    assert w.samples[0] == -1.0
    assert w.samples[1] == 8388607 / 8388608
    assert w.samples[2] == 0.0


def test_float32_samples(tmp_path):
    payload = struct.pack("<3f", 0.25, -0.5, 1.5)
    path = tmp_path / "f32.wav"
    path.write_bytes(build_wav(payload, fmt_tag=3, bits=32))
    w = read_wav(path)
    assert np.array_equal(w.samples, [0.25, -0.5, 1.5])


def test_extensible_pcm24_mono(tmp_path):
    payload = b"\x00\x00\x80" + b"\xff\xff\x7f" + b"\x00\x00\x40"
    ext = extensible_fmt_ext(1, 24, 1)
    path = tmp_path / "ext24.wav"
    path.write_bytes(build_wav(payload, fmt_tag=0xFFFE, rate=48000, bits=24, fmt_ext=ext))
    w = read_wav(path)
    assert w.sample_rate == 48000
    assert np.array_equal(w.samples, [-1.0, 8388607 / 8388608, 0.5])


def test_extensible_float32_stereo(tmp_path):
    payload = struct.pack("<4f", 0.25, -0.75, 1.0, 0.5)
    ext = extensible_fmt_ext(3, 32, 2)
    path = tmp_path / "extf32.wav"
    path.write_bytes(build_wav(payload, fmt_tag=0xFFFE, channels=2, bits=32, fmt_ext=ext))
    assert np.array_equal(read_wav(path).samples, [-0.25, 0.75])


@pytest.mark.parametrize(
    "sub_tag, tail",
    [
        (0x0055, KSDATAFORMAT_TAIL),  # MPEG Layer 3 under the standard tail
        # Same leading tag as PCM but another GUID (Ambisonic B-format PCM).
        (0x0001, bytes.fromhex("00002107d3118644c8c1ca000000")),
    ],
)
def test_extensible_rejects_unknown_subformat(tmp_path, sub_tag, tail):
    ext = extensible_fmt_ext(sub_tag, 16, 1, tail)
    path = tmp_path / "x.wav"
    path.write_bytes(build_wav(b"\x00\x00", fmt_tag=0xFFFE, fmt_ext=ext))
    with pytest.raises(UnsupportedFormat):
        read_wav(path)


def test_extensible_rejects_short_fmt_chunk(tmp_path):
    ext = extensible_fmt_ext(1, 16, 1)[:10]  # fmt body of 26 bytes, not 40
    path = tmp_path / "x.wav"
    path.write_bytes(build_wav(b"\x00\x00", fmt_tag=0xFFFE, fmt_ext=ext))
    with pytest.raises(MalformedContainer):
        read_wav(path)


def test_unknown_chunk_and_odd_size_skipped(tmp_path):
    # A 3-byte "junk" chunk must be skipped with its alignment pad byte.
    junk = b"junk" + struct.pack("<I", 3) + b"abc" + b"\x00"
    path = tmp_path / "junk.wav"
    path.write_bytes(build_wav(struct.pack("<h", 12345), extra_chunks=junk))
    assert read_wav(path).samples[0] == 12345 / 32768


def test_rejects_non_riff(tmp_path):
    path = tmp_path / "x.wav"
    path.write_bytes(b"OggS" + b"\x00" * 40)
    with pytest.raises(MalformedContainer):
        read_wav(path)


def test_rejects_truncated_header(tmp_path):
    path = tmp_path / "x.wav"
    path.write_bytes(b"RIFF\x00\x00")
    with pytest.raises(MalformedContainer):
        read_wav(path)


def test_rejects_truncated_data_chunk(tmp_path):
    blob = build_wav(b"\x00\x00" * 4)
    path = tmp_path / "x.wav"
    path.write_bytes(blob[:-3])  # cut into the data chunk
    with pytest.raises(MalformedContainer):
        read_wav(path)


def test_rejects_compressed_format(tmp_path):
    path = tmp_path / "x.wav"
    path.write_bytes(build_wav(b"\x00\x00", fmt_tag=2))
    with pytest.raises(UnsupportedFormat):
        read_wav(path)


def test_rejects_8bit_pcm(tmp_path):
    path = tmp_path / "x.wav"
    path.write_bytes(build_wav(b"\x00", bits=8))
    with pytest.raises(UnsupportedFormat):
        read_wav(path)


def test_rejects_partial_frame(tmp_path):
    path = tmp_path / "x.wav"
    path.write_bytes(build_wav(b"\x00\x00\x00", channels=2))  # 3 bytes, 4-byte frames
    with pytest.raises(MalformedContainer):
        read_wav(path)


def test_missing_file_is_io_failure(tmp_path):
    with pytest.raises(IoFailure):
        read_wav(tmp_path / "nope.wav")


def test_read_bytes_and_write_atomic_raise_io_failure(tmp_path):
    with pytest.raises(IoFailure, match="cannot read"):
        read_bytes(tmp_path)  # a directory
    with pytest.raises(IoFailure, match="cannot write"):
        write_atomic(tmp_path / "missing" / "x.bin", [b"x"])
    write_atomic(tmp_path / "x.bin", [b"ab", b"cd"])
    assert read_bytes(tmp_path / "x.bin") == b"abcd"


# Method names that open a file (Path.open, os.open, Path.read_text, ...).
_FILE_METHODS = {"open", "read_text", "write_text", "read_bytes", "write_bytes"}


def test_only_audio_io_opens_files():
    offenders = []
    for path in sorted(Path(sraug.__file__).parent.glob("*.py")):
        if path.name == "audio_io.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (isinstance(func, ast.Name) and func.id == "open") or (
                isinstance(func, ast.Attribute) and func.attr in _FILE_METHODS
            ):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


# ---------------------------------------------------------------------------
# writing


def test_write_read_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    w = Waveform(rng.uniform(-1.0, 1.0, 2000), 16000)
    path = tmp_path / "rt.wav"
    write_wav(path, w)
    back = read_wav(path)
    assert back.sample_rate == 16000
    assert np.max(np.abs(back.samples - w.samples)) <= 1.0 / 32768


def test_write_clamps_out_of_range(tmp_path):
    path = tmp_path / "hot.wav"
    write_wav(path, Waveform(np.array([2.0, -2.0]), 16000))
    back = read_wav(path)
    assert back.samples[0] == 32767 / 32768
    assert back.samples[1] == -1.0


def test_write_rounds_half_away_from_zero(tmp_path):
    # 0.5/32768 rounds up to 1, -0.5/32768 rounds down to -1.
    path = tmp_path / "round.wav"
    write_wav(path, Waveform(np.array([0.5 / 32768, -0.5 / 32768]), 16000))
    back = read_wav(path)
    assert back.samples[0] == 1 / 32768
    assert back.samples[1] == -1 / 32768


def test_empty_waveform_round_trip(tmp_path):
    path = tmp_path / "empty.wav"
    write_wav(path, Waveform(np.zeros(0), 8000))
    back = read_wav(path)
    assert len(back) == 0
    assert back.sample_rate == 8000


def test_write_to_missing_dir_is_io_failure(tmp_path):
    with pytest.raises(IoFailure):
        write_wav(tmp_path / "no" / "dir" / "x.wav", Waveform(np.zeros(4), 16000))


def test_write_is_deterministic(tmp_path):
    w = synth.voiced(0.3, 200, 220, seed=1)
    write_wav(tmp_path / "a.wav", w)
    write_wav(tmp_path / "b.wav", w)
    assert (tmp_path / "a.wav").read_bytes() == (tmp_path / "b.wav").read_bytes()


# ---------------------------------------------------------------------------
# resampling


def test_resample_equal_rate_returns_input():
    w = synth.tone(440.0, 0.1)
    assert resample(w, 16000) is w


def test_resample_rejects_bad_rate():
    with pytest.raises(ValueError):
        resample(synth.tone(440.0, 0.1), 0)


def test_downsample_400hz_sine_keeps_peak():
    w = synth.tone(400.0, 1.0, sr=48000)
    out = resample(w, 16000)
    assert out.sample_rate == 16000
    assert len(out) == 16000
    spectrum = np.abs(np.fft.rfft(out.samples))  # 1 Hz per bin at this length
    assert abs(int(np.argmax(spectrum)) - 400) <= 1


def test_downsample_removes_above_nyquist():
    w = synth.tone(7000.0, 1.0, sr=16000)
    out = resample(w, 8000)
    rms = np.sqrt(np.mean(out.samples**2))
    assert rms < 0.05


def test_upsample_then_downsample_round_trip():
    t = np.arange(8000) / 8000
    w = Waveform(0.4 * np.sin(2 * np.pi * 400 * t) + 0.2 * np.sin(2 * np.pi * 800 * t), 8000)
    back = resample(resample(w, 16000), 8000)
    # Compare away from the edges where the kernel support is truncated.
    a = w.samples[400:-400]
    b = back.samples[400 : 400 + a.size]
    snr = 10 * np.log10(np.sum(a**2) / np.sum((a - b) ** 2))
    assert snr > 40.0


def test_resample_empty_input():
    out = resample(Waveform(np.zeros(0), 8000), 16000)
    assert len(out) == 0
    assert out.sample_rate == 16000


@settings(max_examples=60, deadline=None)
@given(
    n_in=st.integers(min_value=1, max_value=4000),
    rates=st.sampled_from([(8000, 16000), (16000, 8000), (16000, 22050), (44100, 16000)]),
)
def test_resample_length_formula(n_in, rates):
    src, dst = rates
    w = Waveform(np.zeros(n_in), src)
    assert len(resample(w, dst)) == _round_half_up(n_in * dst / src)


@settings(max_examples=20, deadline=None)
@given(freq=st.floats(min_value=100.0, max_value=3000.0))
def test_resample_preserves_tone_frequency(freq):
    w = synth.tone(freq, 0.5, sr=48000)
    out = resample(w, 16000)
    spectrum = np.abs(np.fft.rfft(out.samples))
    peak_hz = np.argmax(spectrum) * 16000 / len(out)
    assert abs(peak_hz - freq) <= 16000 / len(out) + 1e-9


def _direct_resample(x: np.ndarray, src: int, dst: int) -> np.ndarray:
    """The windowed-sinc formula evaluated tap by tap, in floating-point
    positions n * (src / dst); the reference the polyphase table must match."""
    n_in = x.size
    n_out = _round_half_up(n_in * dst / src)
    scale = min(1.0, dst / src)
    half_width = 64 / scale
    width = int(math.ceil(half_width))
    padded = np.concatenate([np.zeros(width), x, np.zeros(width)])
    offsets = np.arange(-width, width + 1)
    out = np.empty(n_out)
    step = src / dst
    chunk = max(1, int(4e6) // (2 * width + 1))
    for start in range(0, n_out, chunk):
        n = np.arange(start, min(start + chunk, n_out))
        centers = n * step
        base = np.minimum(np.floor(centers).astype(np.int64), n_in - 1)
        tau = centers[:, None] - (base[:, None] + offsets[None, :])
        kernel = scale * np.sinc(scale * tau) * _kaiser(tau / half_width)
        gathered = padded[base[:, None] + offsets[None, :] + width]
        out[n] = np.einsum("ij,ij->i", gathered, kernel)
    return out


# (source rate, target rate, input length).  The lengths 33002 and 30897
# need two chunks of outputs; 31, 5, 27 and 8 put the last output's centre
# sample at n_in - 1, the end of the signal.
_EXACT_CASES = [
    (48000, 16000, 33002),
    (48000, 16000, 7),
    (16000, 8000, 31),
    (8000, 16000, 5),
]
_CLOSE_CASES = [
    (22050, 16000, 30897),
    (22050, 16000, 27),
    (44100, 16000, 4410),
    (16000, 22050, 1001),
    (16001, 16000, 8),
    (16001, 16000, 3001),
]


def _noise(n: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).uniform(-1.0, 1.0, n)


@pytest.mark.parametrize("src, dst, n_in", _EXACT_CASES)
def test_resample_integer_ratio_matches_direct_formula_exactly(src, dst, n_in):
    x = _noise(n_in, n_in)
    out = resample(Waveform(x, src), dst).samples
    assert np.array_equal(out, _direct_resample(x, src, dst))


@pytest.mark.parametrize("src, dst, n_in", _CLOSE_CASES)
def test_resample_fractional_ratio_matches_direct_formula(src, dst, n_in):
    # Exact rational phases differ from the float positions n * step by
    # rounding only.
    x = _noise(n_in, n_in)
    out = resample(Waveform(x, src), dst).samples
    assert np.max(np.abs(out - _direct_resample(x, src, dst))) <= 1e-10


def test_reference_cases_cover_chunks_and_signal_end():
    spans_chunks = ends_at_last_sample = 0
    for src, dst, n_in in _EXACT_CASES + _CLOSE_CASES:
        n_out = _round_half_up(n_in * dst / src)
        width = math.ceil(64 / min(1.0, dst / src))
        spans_chunks += n_out > int(4e6) // (2 * width + 1)
        ends_at_last_sample += math.floor((n_out - 1) * src / dst) == n_in - 1
    assert spans_chunks >= 2
    assert ends_at_last_sample >= 4
