"""tools/bench_pairs.py refuses a bad command line before it runs anything."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_refuses_fewer_than_one_pair(tmp_path, monkeypatch, capsys):
    bench_pairs = _bench_pairs()

    def no_export(rev, into):
        raise AssertionError("git archive ran")

    monkeypatch.setattr(bench_pairs, "export", no_export)
    with pytest.raises(SystemExit) as info:
        bench_pairs.main(["--out", str(tmp_path / "b.json"), "--pairs", "0"])
    assert info.value.code == 2
    assert "--pairs must be at least 1, got 0" in capsys.readouterr().err
    assert not (tmp_path / "b.json").exists()
