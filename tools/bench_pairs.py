"""Alternating parent/change pairs of the benchmark, summarized as a BENCH_*.json skeleton.

    python3 tools/bench_pairs.py --base HEAD --out BENCH_x.json \\
        --claim audio_s_per_s:horizontal_long --held-out 9903 --trace-seeds 2100,2101

Run from the root of a checkout.  The parent is ``--base``, exported
with ``git archive``; the change is the working tree as it stands, its
tracked files and its untracked files that are not ignored, copied.
Both go into fresh sibling directories, deleted at the end, so the two
sides run from the same kind of tree.  Both sides run their own
copy of ``perfbench/run.py`` unmodified (the tool stops if the two
copies differ), each from its own tree, so each imports its own
``src/``.  For each seed, workloads take turns pair by pair, and the
side that runs first alternates from one seed to the next.  A held-out
seed, if given, is one more pair of each workload, run last.  Traced
runs (``--trace 1``) give the per-layer metrics of both sides.

The output holds each side's count of lines of Python under ``src/``
and under ``tests/`` and, per workload and metric, each side's
quartiles, the pairs the change won and lost, and whether its median is
worse than the parent's by more than the bound in BENCHMARK.json; with
``--claim``, also the claim rule's verdict.  A claim on a metric that is not one of
BENCHMARK.json's end-to-end metrics or on a workload that does not run,
and ``--pairs`` below 1, are refused before the first run.  ``title``
and the ``note`` fields are left for a person to fill in.  A failed run
stops the tool with exit code 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path.cwd()
# Seeds of the untraced pairs: FIRST_SEED, FIRST_SEED + 1, ...
FIRST_SEED = 2000


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(rev: str, into: Path) -> None:
    """The files of ``rev`` in ``into``, as ``git archive`` gives them."""
    archive = subprocess.Popen(["git", "archive", rev], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(into)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"bench_pairs: git archive {rev} failed")


def copy_worktree(into: Path) -> None:
    """The working tree's files in ``into``: tracked ones as they stand, and
    untracked ones that are not ignored.  A tracked file deleted from the
    tree is left out."""
    for name in git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split("\0"):
        source = ROOT / name
        if name and source.is_file():
            (into / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, into / name)


def code_hash(tree: Path) -> str:
    """perfbench/run.py's key for the outputs of one code version.

    It must match ``code_hash`` in perfbench/run.py, whose digests.json
    stores each run's output digest under ``workload/seed/code hash``.
    """
    h = hashlib.sha256()
    for path in sorted((tree / "src").rglob("*.py")) + sorted((tree / "perfbench").glob("*.py")):
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def py_lines(tree: Path, top: str) -> int:
    """Lines of the Python files under ``tree/top``, as ``wc -l`` counts them."""
    return sum(path.read_bytes().count(b"\n") for path in (tree / top).rglob("*.py"))


def run(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run in ``tree``: its metrics and output digest."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    # A run that exits non-zero, or whose last line is not a JSON object,
    # failed, whatever it printed before.
    try:
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else {}
    except json.JSONDecodeError:
        result = {}
    if not isinstance(result, dict) or not result.get("correct"):
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"bench_pairs: {workload} seed {seed} trace {trace} failed in {tree}")
    digests = json.loads((tree / ".perfbench" / "results" / "digests.json").read_text())
    return {
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "digest": digests[f"{workload}/{seed}/{code_hash(tree)}"],
    }


def pair(trees: dict, workload: str, seed: int, first: str, seconds: float, trace: int) -> dict:
    order = [first, "change" if first == "parent" else "parent"]
    runs = {side: run(trees[side], workload, seed, seconds, trace) for side in order}
    print(f"bench_pairs: {workload} seed {seed} trace {trace}: "
          + ", ".join(f"{s} {runs[s]['metrics']}" for s in order), file=sys.stderr, flush=True)
    return {"seed": seed, "first": first,
            "parent": runs["parent"]["metrics"], "change": runs["change"]["metrics"],
            "digests_equal": runs["parent"]["digest"] == runs["change"]["digest"]}


def quartiles(values) -> list[float]:
    return [round(float(q), 6) for q in np.percentile(values, [25, 50, 75])]


def summarize(pairs: list, spec: dict) -> dict:
    """Quartiles, pair wins and the bound check of each end-to-end metric."""
    summary = {}
    for metric in spec["end_to_end"]:
        name, higher = metric["name"], metric["better"] == "higher"
        parent = [p["parent"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        pq, cq = quartiles(parent), quartiles(change)
        gains = [(c - p) if higher else (p - c) for p, c in zip(parent, change)]
        median_gain = (cq[1] - pq[1]) if higher else (pq[1] - cq[1])
        summary[name] = {
            "parent_q1_median_q3": pq,
            "change_q1_median_q3": cq,
            "change_median_over_parent": round(cq[1] / pq[1], 4) if pq[1] else None,
            "parent_iqr": round(pq[2] - pq[0], 6),
            "bound": metric["bound"],
            "median_gain": round(median_gain, 6),
            "worse_than_bound": -median_gain > metric["bound"] * abs(pq[1]),
            "pairs_change_better": sum(g > 0 for g in gains),
            "pairs_change_worse": sum(g < 0 for g in gains),
            "pairs": len(pairs),
        }
    return summary


def layers(pairs: list) -> dict:
    names = sorted(set(pairs[0]["parent"]) & set(pairs[0]["change"]))
    return {
        name: {
            "parent_median": round(float(np.median([p["parent"][name] for p in pairs])), 6),
            "change_median": round(float(np.median([p["change"][name] for p in pairs])), 6),
            "parent_runs": [p["parent"][name] for p in pairs],
            "change_runs": [p["change"][name] for p in pairs],
        }
        for name in names
    }


def claim(metric: str, workload: str, end_to_end: dict) -> dict:
    """The claim rule: 9 of 10 pairs won, and a median gain wider than the parent's IQR."""
    s = end_to_end[workload]["summary"][metric]
    return {
        "metric": metric,
        "workload": workload,
        "parent_median": s["parent_q1_median_q3"][1],
        "change_median": s["change_q1_median_q3"][1],
        "pairs_change_better": s["pairs_change_better"],
        "pairs": s["pairs"],
        "parent_iqr": s["parent_iqr"],
        "met": s["pairs_change_better"] >= 0.9 * s["pairs"] and s["median_gain"] > s["parent_iqr"],
        "note": "",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD", help="the parent revision (default HEAD)")
    parser.add_argument("--out", required=True, help="the BENCH_*.json to write")
    parser.add_argument("--workloads", default="utt16k_vertical,mixed_rate_jobs2,horizontal_long")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--held-out", type=int, help="one more pair per workload, run last")
    parser.add_argument("--trace-seeds", default="", help="comma-separated seeds of traced pairs")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--claim", help="METRIC:WORKLOAD, checked by the claim rule")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        # The output's environment record and method name the first untraced seed.
        parser.error(f"--pairs must be at least 1, got {args.pairs}")
    workloads = args.workloads.split(",")
    seeds = [FIRST_SEED + i for i in range(args.pairs)]
    trace_seeds = [int(s) for s in args.trace_seeds.split(",") if s]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.claim:
        # Refused before the first run, not after every pair has run.
        metric, _, workload = args.claim.partition(":")
        metrics = [m["name"] for m in spec["end_to_end"]]
        if metric not in metrics:
            parser.error(f"--claim: {metric!r} is none of BENCHMARK.json's end-to-end "
                         f"metrics ({', '.join(metrics)})")
        if workload not in workloads:
            parser.error(f"--claim: workload {workload!r} is not in --workloads "
                         f"({','.join(workloads)})")

    scratch = Path(tempfile.mkdtemp(prefix="bench_pairs-"))
    try:
        trees = {"parent": scratch / "parent", "change": scratch / "change"}
        for tree in trees.values():
            tree.mkdir()
        export(args.base, trees["parent"])
        copy_worktree(trees["change"])
        lines = {top: {side: py_lines(tree, top) for side, tree in trees.items()}
                 for top in ("src", "tests")}
        benches = {side: {p.name: p.read_bytes() for p in (tree / "perfbench").glob("*")
                          if p.is_file()} for side, tree in trees.items()}
        if benches["parent"] != benches["change"]:
            raise SystemExit(f"bench_pairs: perfbench/ differs from {args.base}'s")
        untraced = {w: [] for w in workloads}
        for i, seed in enumerate(seeds + ([args.held_out] if args.held_out is not None else [])):
            for w in workloads:
                first = "parent" if i % 2 == 0 else "change"
                untraced[w].append(pair(trees, w, seed, first, args.seconds, 0))
        traced = {w: [pair(trees, w, seed, "parent" if i % 2 == 0 else "change", args.seconds, 1)
                      for i, seed in enumerate(trace_seeds)] for w in workloads}
        # The change side's first run wrote this record in its own tree.
        record = (trees["change"] / ".perfbench" / "results"
                  / f"{workloads[0]}-seed{seeds[0]}-trace0.json")
        environment = json.loads(record.read_text())["environment"]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    out = {
        "title": "",
        "parent_commit": git("rev-parse", "--short", args.base),
        "change": f"working tree on {git('rev-parse', '--short', 'HEAD')}",
        "src_lines": lines["src"],
        "tests_lines": lines["tests"],
        "machine": {k: environment.get(k)
                    for k in ("nproc", "machine", "python", "numpy", "blas")},
        "command": f"python3 perfbench/run.py --workload <workload> --seed <seed> "
                   f"--seconds {args.seconds:g} --trace <0|1>",
        "method": "tools/bench_pairs.py: unmodified perfbench/run.py in two sibling source "
                  f"trees, the parent ({args.base}, by git archive) and a copy of the working "
                  "tree (tracked and untracked files, not ignored ones). Pairs alternate "
                  "which side runs first (\"first\"); workloads take turns pair by pair. "
                  f"Untraced seeds {seeds[0]}-{seeds[-1]}"
                  + ("" if args.held_out is None else f", then the held-out seed {args.held_out}")
                  + (f"; traced seeds {args.trace_seeds}" if trace_seeds else "")
                  + ". Quartiles are numpy percentiles 25/50/75. A digest is perfbench's output "
                  "digest of a run (every output WAV and its manifest record).",
    }
    if args.held_out is not None:
        out["held_out_seed"] = {"seed": args.held_out, "note": "the last pair of each workload"}
    out["end_to_end"] = {
        w: {
            "seeds": [p["seed"] for p in ps],
            "digests_equal_every_pair": all(p["digests_equal"] for p in ps),
            "summary": summarize(ps, spec),
            "pairs": ps,
        }
        for w, ps in untraced.items()
    }
    if args.claim:
        out["claim"] = claim(metric, workload, out["end_to_end"])
    if trace_seeds:
        out["trace"] = {
            w: {"seeds": trace_seeds, "first": [p["first"] for p in ps],
                "digests_equal_every_pair": all(p["digests_equal"] for p in ps),
                "layers": layers(ps)}
            for w, ps in traced.items()
        }
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    print(f"bench_pairs: wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
