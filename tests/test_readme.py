"""The README's library examples run as written."""

import json
import re
from pathlib import Path

import synth
from sraug.audio_io import read_wav, write_wav

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_snippets() -> list[str]:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, flags=re.S)


def test_readme_library_snippets_run(tmp_path, monkeypatch):
    single, batch = _library_snippets()
    monkeypatch.chdir(tmp_path)
    write_wav("utt.wav", synth.voiced(0.5, 150.0, 210.0, seed=1))
    Path("corpus").mkdir()
    for i in range(2):
        write_wav(f"corpus/utt{i}.wav", synth.voiced(0.4, 160.0 + 20 * i, 220.0, seed=2 + i))

    exec(compile(single, "README.md", "exec"), {})
    assert read_wav("utt_low.wav").sample_rate == 16000

    namespace = {}
    exec(compile(batch, "README.md", "exec"), namespace)
    manifest = namespace["manifest"]
    assert len(manifest.records) == 2 and not manifest.failures
    lines = Path("out/manifest.jsonl").read_text().splitlines()
    assert [json.loads(line)["source_path"] for line in lines] == [
        "corpus/utt0.wav",
        "corpus/utt1.wav",
    ]
