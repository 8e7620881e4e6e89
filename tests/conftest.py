"""Shared fixtures plus a visible verdict line for each acceptance check."""

import os
import sys
from pathlib import Path

import pytest

import synth

_ACCEPTANCE_LABELS = {
    "test_1_pitch_direction": "median F0 strictly increasing in resize ratio",
    "test_2_vertical_shape": "vertical resize keeps shape; ratio 1 is identity",
    "test_3_stft_round_trip": "STFT/iSTFT round trip > 60 dB and deterministic",
    "test_4_loss_closed_forms": "loss math matches closed-form values",
    "test_5_f0_pcc_metric": "F0-PCC self/glide/hand-checked values",
    "test_6_identity_ratio_fidelity": "ratio-1.0 corpus keeps F0-PCC > 0.95",
    "test_7_cli_determinism": "repeated CLI runs are byte-identical",
    "test_8_throughput": "60 s of audio augments in under 30 s",
    "test_9_throughput_48k": "60 s of 48 kHz audio augments in under 30 s",
}


# CLI tests start `python -m sraug.cli` in a child process; give it the
# same source tree that pytest's `pythonpath` setting gives this one.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)


def pytest_runtest_logreport(report):
    if report.when != "call" or "test_acceptance.py" not in report.nodeid:
        return
    name = report.nodeid.rsplit("::", 1)[-1].split("[")[0]
    label = _ACCEPTANCE_LABELS.get(name)
    if label is None:
        return
    verdict = "PASS" if report.passed else "FAIL"
    sys.stderr.write(f"\nacceptance {verdict}: {label}\n")


@pytest.fixture
def slab_floor_32(monkeypatch):
    """Slabs of at least 32 rows, so that inputs of 64 to a few hundred
    frames run cuts into several slabs, as they did before the shipped
    floor was measured."""
    from sraug import spectral

    monkeypatch.setattr(spectral, "_MIN_SLAB_ROWS", 32)


@pytest.fixture(scope="session")
def mini_corpus(tmp_path_factory):
    """Ten deterministic voiced utterances on disk, shared by slow tests."""
    corpus_dir = tmp_path_factory.mktemp("corpus")
    synth.write_corpus(corpus_dir, n=10)
    return corpus_dir
