"""Self-test of the benchmark: a tiny-size pass of every workload.

Usage, from the root of the repository::

    python3 viewbench/selftest.py

For each workload in ``viewbench/workloads.py`` it runs ``run.py --size
tiny`` untraced and traced and checks the result line against
``BENCHMARK.json``: exact keys, every metric named there with its unit,
every result correct, and per-layer self times that account for the
traced ``total_s``. It then checks that the
benchmark refuses to run without the program's sources, and that
``git status --porcelain`` is the same before and after (when the
checkout is a git repository). Exits non-zero on the first failure.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN_TIMEOUT_S = 300
#: Largest share of a traced pass that may fall outside every layer span.
MAX_UNATTRIBUTED = 0.05


def git_status() -> str | None:
    try:
        r = subprocess.run(
            ["git", "status", "--porcelain"], cwd=ROOT, capture_output=True,
            text=True, timeout=60,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout if r.returncode == 0 else None


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        SPEC["command"] + list(args), cwd=cwd, capture_output=True, text=True,
        timeout=RUN_TIMEOUT_S,
    )


def check(cond: bool, msg: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {msg}")


def check_result(proc, workload: str, trace: int) -> None:
    what = f"{workload} --trace {trace}"
    check(proc.returncode == 0, f"{what} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{what}: keys {sorted(result)}")
    check(result["correct"] is True and result["failed"] == 0, f"{what}: {result['failed']} failed")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1, f"{what}: attempted")
    want = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    check(got == want, f"{what}: metrics differ from BENCHMARK.json: {set(got) ^ set(want)}")
    m = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        share = m["trace.unattributed_share"]
        check(abs(share) <= MAX_UNATTRIBUTED, f"{what}: {share:.1%} of total_s is in no span")
    else:
        for name in want:
            check(m[name] > 0, f"{what}: {name} is {m[name]}")
    print(f"selftest ok: {what} ({result['attempted']} results)", flush=True)


def check_refuses_without_sources() -> None:
    """In a directory holding only BENCHMARK.json and the benchmark, the
    command must fail without printing a result."""
    bare = ROOT / ".viewbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for p in SPEC["paths"]:
            shutil.copytree(ROOT / p, bare / p, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                   "--seconds", "1", "--trace", "0")
        check(proc.returncode != 0, "ran without the program's sources")
        check('"metrics"' not in proc.stdout, "printed a result without the program's sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("selftest ok: refuses to run without the program's sources", flush=True)


def main() -> int:
    before = git_status()
    # Every workload run.py knows, including any BENCHMARK.json leaves out.
    sys.path[:0] = [str(ROOT / "viewbench"), str(ROOT / "src")]
    from workloads import WORKLOADS

    for name in WORKLOADS:
        for trace in (0, 1):
            proc = run(ROOT, "--workload", name, "--seed", "3", "--seconds", "1",
                       "--trace", str(trace), "--size", "tiny")
            check_result(proc, name, trace)
    check_refuses_without_sources()
    after = git_status()
    if before is None:
        print("selftest: not a git checkout, git status not compared")
    else:
        check(before == after, f"git status changed:\n{before}\n---\n{after}")
        print("selftest ok: git status unchanged", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
