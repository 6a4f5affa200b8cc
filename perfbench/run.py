"""Benchmark of the oplearn pipeline: simulate -> fit -> evaluate -> report.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; ``oplearn`` is imported from the
checkout's ``src``. With ``--trace 0`` a timed set-up and an untraced
pipeline alternate for S seconds and the end-to-end metrics are medians
over the repeats, each step's time taken at a fixed machine pace (see
pace.py). With ``--trace 1`` untraced and traced pipelines
alternate, twice each, in one child process and the per-layer metrics come
from the traced ones. The last line of standard output is the JSON result;
the line before it records the interpreter, NumPy, BLAS and thread
settings. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from metrics import END_TO_END, PER_LAYER, layer_value
from pace import paced, reference
from workloads import COMMANDS, WORKLOADS, cli_argv, dgp_dict

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

MIN_REPEATS = 3
# One BLAS/OpenMP thread per process: on a small shared machine a second
# thread adds more run-to-run spread than speed.
BLAS_THREADS = 1


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def spawn(argv: list[str], cwd: Path, log: Path) -> tuple[float, int, int]:
    """Run one child to completion: (wall seconds, exit code, ru_maxrss KiB)."""
    with log.open("ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=cwd, env=child_env(), stdout=subprocess.DEVNULL, stderr=err
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, usage.ru_maxrss


def child(mode: str, workload, seed: int, n_units: int, work: Path) -> list[str]:
    return [
        sys.executable, str(HERE / "child.py"), mode,
        workload.name, str(seed), str(n_units), str(work),
    ]


def environment() -> dict:
    import numpy as np

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
    }


def flip_action_byte(path: Path) -> None:
    """Self-test hook: change the first unit's neutral action by one byte."""
    data = bytearray(path.read_bytes())
    if path.suffix == ".json":
        pos = data.index(b'"neutral_action": ') + len(b'"neutral_action": ')
    else:
        pos = data.index(b",", data.index(b"\n") + 1) + 1
    data[pos] = ord("1") if data[pos] != ord("1") else ord("0")
    path.write_bytes(data)


def checked_quality(check, checks, *args) -> dict:
    """Run the artifact checks; unreadable artifacts count as one failure."""
    try:
        return check(*args, checks)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        checks.add(f"artifacts readable ({exc!r})", False)
        return {}


def measure(repeat, seconds: float) -> list[dict[str, tuple[float, float]]]:
    """Repeat set-up plus pipeline until the next repeat would overrun
    ``seconds``; each repeat maps a step to its (raw, paced) seconds.
    Interleaving spreads the set-up samples over the whole run, like the
    pipeline samples, instead of bunching them at the start."""
    reference()  # untimed: first call warms the reference's caches
    samples = []
    start = time.perf_counter()
    while True:
        samples.append(repeat())
        elapsed = time.perf_counter() - start
        last = sum(raw for raw, _ in samples[-1].values())
        if len(samples) >= MIN_REPEATS and elapsed + last > seconds:
            return samples


def bracketed(steps, refs: list[float]) -> dict[str, tuple[float, float]]:
    """(raw, paced) seconds of ``steps``, a list of (name, raw seconds) timed
    one after another with a reference before, between and after them."""
    return {
        name: (raw, paced(raw, refs[i], refs[i + 1])) for i, (name, raw) in enumerate(steps)
    }


def timed_cli(workload, work: Path, seconds: float, setup, checks):
    """Set-up, then one ``python -m oplearn`` process per command, one at a time."""
    from checks import manifest_artifacts

    argvs = cli_argv(workload)
    run_dir = work / "run"
    manifests = []
    rss = 0

    def repeat() -> dict[str, tuple[float, float]]:
        nonlocal rss
        shutil.rmtree(run_dir, ignore_errors=True)
        run_dir.mkdir()
        refs = [reference()]
        steps = [("setup", setup())]
        refs.append(reference())
        for cmd, argv in argvs.items():
            elapsed, code, maxrss = spawn([sys.executable, "-m", "oplearn", *argv], run_dir, work / "stderr.log")
            refs.append(reference())
            checks.add(f"{cmd} exits 0", code == 0)
            steps.append((cmd, elapsed))
            rss = max(rss, maxrss)
        try:
            manifests.append(manifest_artifacts(run_dir))
        except (OSError, ValueError, KeyError) as exc:
            checks.add(f"manifests readable ({exc!r})", False)
        return bracketed(steps, refs)

    samples = measure(repeat, seconds)
    checks.add(
        "repeats give identical manifest hashes",
        len(manifests) == len(samples) and all(m == manifests[0] for m in manifests),
    )
    return samples, rss


def timed_lib(workload, seed: int, n_units: int, work: Path, seconds: float, setup, checks):
    """Set-up in its own process, then the pipeline in one fresh child that
    runs all repeats and waits on its stdin between them; the child times
    the reference between its stages itself."""
    with (work / "stderr.log").open("ab") as err:
        proc = subprocess.Popen(
            child("lib", workload, seed, n_units, work), cwd=work, env=child_env(),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err, text=True,
        )
    digests = []

    def repeat() -> dict[str, tuple[float, float]]:
        before = reference()
        setup_s = setup()
        sample = bracketed([("setup", setup_s)], [before, reference()])
        proc.stdin.write("run\n")
        proc.stdin.flush()
        record = json.loads(proc.stdout.readline())
        digests.append(record["digest"])
        checks.add(f"repeat {len(digests)} propensity model converged", record["converged"])
        sample.update(bracketed(list(record["times"].items()), record["refs"]))
        return sample

    try:
        samples = measure(repeat, seconds)
        proc.stdin.close()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    checks.add("library pipeline exits 0", proc.returncode == 0)
    checks.add("repeats give identical outputs", len(set(digests)) == 1)
    return samples, usage.ru_maxrss


def run(args, workload, n_units: int, work: Path) -> dict:
    from checks import Checks, check_cli_run, check_lib_run, oracle_for

    log = work / "stderr.log"

    def setup() -> float:
        elapsed, code, _ = spawn(child("setup", workload, args.seed, n_units, work), work, log)
        if code != 0:
            raise RuntimeError(f"set-up failed; see the log:\n{log.read_text()[-2000:]}")
        return elapsed

    setup()  # untimed: fills the bytecode cache and writes the input

    checks = Checks()
    dgp = dgp_dict(workload, args.seed, n_units)
    cli = workload.front_end == "cli"
    run_dir = work / "run"

    if args.trace:
        _, code, _ = spawn(child("trace", workload, args.seed, n_units, work), work, log)
        checks.add("traced run exits 0", code == 0)
        trace = json.loads((work / "trace.json").read_text())
        for cmd, rc in trace["exit_codes"].items():
            checks.add(f"traced {cmd} exits 0", rc == 0)
        checks.add("spans nest inside their parents", trace["nesting_errors"] == 0)
        OUT.mkdir(exist_ok=True)
        shutil.copy(work / "spans.json", OUT / f"spans-{workload.name}-{args.seed}.json")
    elif cli:
        samples, rss = timed_cli(workload, work, args.seconds, setup, checks)
    else:
        samples, rss = timed_lib(workload, args.seed, n_units, work, args.seconds, setup, checks)

    if args.corrupt:
        flip_action_byte(run_dir / "fit" / f"assignments.{workload.table_format}")
    oracle = oracle_for(dgp)
    if cli:
        quality = checked_quality(check_cli_run, checks, workload, oracle, run_dir)
    else:
        quality = checked_quality(check_lib_run, checks, oracle, work)
    checks.add("neutral policy recovers the oracle", quality.get("agree_neutral", 0) >= 0.9)

    if args.trace:
        layers, pipelines = trace["layers"], trace["pipelines"]
        values = {name: layer_value(layers, name, pipelines) for name in PER_LAYER}
        untraced = sum(trace["untraced_s"].values()) / pipelines
        traced = sum(values[f"pipeline.{cmd}.busy_s"] for cmd in COMMANDS)
        values["trace.untraced_pipeline_s"] = untraced
        values["trace.overhead_s"] = traced - untraced
        values["quality.dr_abs_err"] = quality.get("dr_abs_err", 0.0)
        values["regression.fit_mnlogit.stall_probe_iterations"] = trace["stall_probe_iterations"]
        units = PER_LAYER
    else:
        values, raw = ({
            f"{step}_s": statistics.median(s[step][col] for s in samples)
            for step in ("setup", *COMMANDS)
        } for col in (1, 0))
        pipeline = statistics.median(sum(s[cmd][1] for cmd in COMMANDS) for s in samples)
        values.update(
            pipeline_s=pipeline,
            units_per_s=n_units / pipeline,
            peak_rss_mb=rss / 1024,
            **{f"agree_{p}": quality.get(f"agree_{p}", 0.0) for p in ("neutral", "linear", "quadratic")},
            ok_ratio=1.0 - len(checks.failed) / checks.attempted,
        )
        units = END_TO_END
        print(json.dumps({"repeats": len(samples), "raw_median_s": raw}))

    for name in checks.failed:
        print(f"check failed: {name}", file=sys.stderr)
    return {
        "correct": not checks.failed,
        "attempted": checks.attempted,
        "failed": len(checks.failed),
        "metrics": {name: {"value": values[name], "unit": units[name][0]} for name in units},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--n-units", type=int, help="override the workload size (self-test)")
    parser.add_argument(
        "--corrupt", action="store_true",
        help="flip one byte of the assignments table before the checks (self-test)",
    )
    args = parser.parse_args(argv)
    if not (SRC / "oplearn" / "__init__.py").is_file():
        print(f"error: no oplearn package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    if args.corrupt and workload.front_end != "cli":
        parser.error("--corrupt needs a CLI workload")
    n_units = args.n_units or workload.n_units
    work = WORK / f"{workload.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = run(args, workload, n_units, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    print(json.dumps({"env": environment(), "workload": workload.name, "n_units": n_units}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
