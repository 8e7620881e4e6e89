"""tools/bench_pairs.py: its command-line checks, the trees it runs, failed runs, line counts
and code hash."""

import importlib.util
import json
import shutil
import subprocess
import sys
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


def test_bench_pairs_writes_both_sides_src_and_tests_lines(tmp_path, monkeypatch):
    # Two small trees with different line counts; the runs themselves are
    # stubbed, so only the counting and the output record are exercised.
    bench_pairs = _bench_pairs()
    change, parent = tmp_path / "change", tmp_path / "parent"
    for tree, src_text, tests_text in ((change, "a\nb\n", "t\n"), (parent, "a\n", "t\nu\nv\n")):
        (tree / "src" / "pkg").mkdir(parents=True)
        (tree / "src" / "pkg" / "m.py").write_text(src_text)
        (tree / "src" / "pkg" / "notes.txt").write_text("not\npython\n")
        (tree / "tests").mkdir()
        (tree / "tests" / "test_m.py").write_text(tests_text)
        (tree / "perfbench").mkdir()
        (tree / "perfbench" / "run.py").write_text("")
    spec = {"end_to_end": [{"name": "m", "better": "higher", "bound": 0.1}]}
    (change / "BENCHMARK.json").write_text(json.dumps(spec))
    results = change / ".perfbench" / "results"
    results.mkdir(parents=True)
    (results / f"w-seed{bench_pairs.FIRST_SEED}-trace0.json").write_text('{"environment": {}}')

    def fake_run(tree, workload, seed, seconds, trace):
        return {"metrics": {"m": 1.0}, "digest": "d"}

    monkeypatch.setattr(bench_pairs, "ROOT", change)
    monkeypatch.setattr(bench_pairs, "export", lambda rev, into: shutil.copytree(
        parent, into, dirs_exist_ok=True))
    monkeypatch.setattr(bench_pairs, "copy_worktree", lambda into: shutil.copytree(
        change, into, dirs_exist_ok=True))
    monkeypatch.setattr(bench_pairs, "git", lambda *args: "abc1234")
    monkeypatch.setattr(bench_pairs, "run", fake_run)
    out = tmp_path / "b.json"
    assert bench_pairs.main(["--out", str(out), "--workloads", "w", "--pairs", "1"]) == 0
    written = json.loads(out.read_text())
    assert written["src_lines"] == {"parent": 1, "change": 2}
    assert written["tests_lines"] == {"parent": 3, "change": 1}


def test_bench_pairs_runs_the_change_from_a_copy_of_the_working_tree(tmp_path, monkeypatch):
    # A git checkout with a committed file edited in the working tree, a
    # new untracked file, ignored files and a tracked file deleted from the
    # tree.  Both sides must run from fresh sibling copies, the change side
    # from the working tree as it stands, and the environment record must
    # be the one the change side's run wrote.
    bench_pairs = _bench_pairs()
    root = tmp_path / "checkout"
    (root / "src" / "pkg").mkdir(parents=True)
    (root / "perfbench").mkdir()
    (root / "src" / "pkg" / "m.py").write_text("a\n")
    (root / "src" / "pkg" / "gone.py").write_text("g\n")
    (root / "perfbench" / "run.py").write_text("")
    (root / ".gitignore").write_text("*.log\n.perfbench/\n")
    spec = {"end_to_end": [{"name": "m", "better": "higher", "bound": 0.1}]}
    (root / "BENCHMARK.json").write_text(json.dumps(spec))

    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", "-c",
                        "commit.gpgsign=false", *args], cwd=root, check=True, capture_output=True)

    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "parent")
    (root / "src" / "pkg" / "m.py").write_text("a\nb\n")
    (root / "src" / "pkg" / "new.py").write_text("n\n")
    (root / "src" / "pkg" / "gone.py").unlink()
    (root / "run.log").write_text("ignored\n")
    (root / ".perfbench" / "results").mkdir(parents=True)
    (root / ".perfbench" / "results" / "stale.json").write_text("{}")

    seen = {}

    def fake_run(tree, workload, seed, seconds, trace):
        seen[tree] = sorted(p.relative_to(tree).as_posix() for p in tree.rglob("*")
                            if p.is_file() and ".git" not in p.parts)
        if tree.name == "change":
            assert (tree / "src" / "pkg" / "m.py").read_text() == "a\nb\n"
        results = tree / ".perfbench" / "results"
        results.mkdir(parents=True, exist_ok=True)
        record = {"environment": {"python": tree.name}}
        (results / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(record))
        return {"metrics": {"m": 1.0}, "digest": "d"}

    monkeypatch.setattr(bench_pairs, "ROOT", root)
    monkeypatch.setattr(bench_pairs, "run", fake_run)
    out = tmp_path / "b.json"
    assert bench_pairs.main(["--out", str(out), "--workloads", "w", "--pairs", "1"]) == 0
    parent = next(tree for tree in seen if tree.name == "parent")
    change = next(tree for tree in seen if tree.name == "change")
    assert parent.parent == change.parent != root
    assert not change.parent.exists()
    assert seen[parent] == [".gitignore", "BENCHMARK.json", "perfbench/run.py",
                            "src/pkg/gone.py", "src/pkg/m.py"]
    assert seen[change] == [".gitignore", "BENCHMARK.json", "perfbench/run.py",
                            "src/pkg/m.py", "src/pkg/new.py"]
    written = json.loads(out.read_text())
    assert written["machine"]["python"] == "change"
    assert written["src_lines"] == {"parent": 2, "change": 3}


@pytest.mark.parametrize(
    "returncode, stdout",
    [
        (-9, "environment: python 3.11.7\nenvironment: numpy 2.4.6\n"),  # killed
        (0, "environment: python 3.11.7\n"),
        (0, "[1, 2]\n"),
        (1, '{"correct": true, "metrics": {}}\n'),
        (0, '{"correct": false, "metrics": {}}\n'),
    ],
)
def test_bench_pairs_reports_a_failed_run_with_its_stderr(
    tmp_path, monkeypatch, capsys, returncode, stdout
):
    # The exit code is read first, and a last line that is not a JSON
    # object is a failed run: the run's stderr tail, then the tool's exit.
    bench_pairs = _bench_pairs()

    def fake_run(cmd, **kwargs):
        return subprocess.CompletedProcess(cmd, returncode, stdout, "Killed in gl\n")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    with pytest.raises(SystemExit) as info:
        bench_pairs.run(tmp_path, "w", 7, 1.0, 0)
    assert str(info.value) == f"bench_pairs: w seed 7 trace 0 failed in {tmp_path}"
    assert capsys.readouterr().err == "Killed in gl\n"


def test_bench_pairs_code_hash_matches_perfbench(monkeypatch):
    # bench_pairs finds a run's digest under perfbench/run.py's code hash,
    # so its copy of the formula must give the same hash for this checkout.
    # run.py reads the working directory as the repo root when loaded, and
    # its dataclasses look their module up in sys.modules.
    root = TOOL.parents[1]
    monkeypatch.chdir(root)
    spec = importlib.util.spec_from_file_location("perfbench_run", root / "perfbench" / "run.py")
    run_py = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, run_py)
    spec.loader.exec_module(run_py)
    assert _bench_pairs().code_hash(root) == run_py.code_hash()
