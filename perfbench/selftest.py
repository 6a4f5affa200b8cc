"""Self-test of the benchmark at tiny sizes; takes about a minute.

    python3 perfbench/selftest.py

Checks that every workload in ``BENCHMARK.json`` emits each of its metrics
with the declared unit and passes its output checks, that one flipped byte
in an assignments table fails a check and lowers ``ok_ratio``, and that the
benchmark refuses to run without the ``oplearn`` sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# Large enough that the 8-arm propensity fit is well posed and the neutral
# rule still recovers the oracle.
TINY = {"cli_tall": 2000, "cli_messy_json": 2000, "lib_wide": 8000}


def bench(*args: str, cwd: Path = ROOT) -> tuple[int, dict | None]:
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--seed", "7", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if proc.returncode and result is None:
        sys.stderr.write(proc.stderr[-2000:])
    return proc.returncode, result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures: list[str] = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'PASS' if ok else 'FAIL'}  {what}")
        if not ok:
            failures.append(what)

    for workload in (w["name"] for w in spec["workloads"]):
        size = str(TINY[workload])
        for trace, declared in (("0", spec["end_to_end"]), ("1", spec["per_layer"])):
            code, result = bench("--workload", workload, "--trace", trace, "--n-units", size)
            what = f"{workload} --trace {trace}"
            expect(code == 0 and result is not None and set(result) == RESULT_KEYS,
                   f"{what}: exits 0 with a result line")
            if result is None:
                continue
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                   f"{what}: all {result['attempted']} operations pass")
            metrics = result["metrics"]
            expect(
                set(metrics) == {m["name"] for m in declared}
                and all(metrics[m["name"]]["unit"] == m["unit"] for m in declared),
                f"{what}: emits every declared metric with its unit",
            )

    for workload in ("cli_tall", "cli_messy_json"):
        code, result = bench("--workload", workload, "--trace", "0",
                             "--n-units", str(TINY[workload]), "--corrupt")
        expect(
            code == 0 and result is not None and not result["correct"]
            and result["failed"] >= 1 and result["metrics"]["ok_ratio"]["value"] < 1.0,
            f"{workload}: a flipped byte in the assignments table fails a check",
        )

    bare = ROOT / ".perfbench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        code, result = bench("--workload", "cli_tall", "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(code != 0 and result is None, "without src/oplearn: non-zero exit, no result")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
