"""Child-process entry points of the benchmark; ``run.py`` starts each one in a
fresh interpreter with ``oplearn`` on ``PYTHONPATH``.

    child.py setup WORKLOAD SEED N_UNITS WORKDIR
        import oplearn and write the workload's input (timed as set-up)
    child.py lib WORKLOAD SEED N_UNITS WORKDIR
        run the in-process library pipeline once per "run" line on stdin
    child.py trace WORKLOAD SEED N_UNITS WORKDIR
        untraced and traced pipelines, alternating, in this process
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from pace import reference
from workloads import (
    COMMANDS,
    WORKLOADS,
    build_input,
    cli_argv,
    dgp_dict,
    lib_pipeline,
    stall_probe_iterations,
)

TRACE_PAIRS = 2


@contextmanager
def _timed(times: dict, name: str, accumulate: bool = False):
    start = time.perf_counter()
    try:
        yield
    finally:
        times[name] = time.perf_counter() - start + (times[name] if accumulate else 0.0)


def _digest(outputs: dict) -> str:
    h = hashlib.sha256()
    for label in sorted(outputs["actions"]):
        h.update(outputs["actions"][label].tobytes())
    h.update(json.dumps([outputs["values"], outputs["svg_sha256"]], sort_keys=True).encode())
    return h.hexdigest()


def _save_outputs(outputs: dict, workdir: Path) -> None:
    np.savez(workdir / "actions.npz", **outputs["actions"])
    rest = {k: v for k, v in outputs.items() if k != "actions"}
    (workdir / "outputs.json").write_text(json.dumps(rest))


@contextmanager
def _paced(times: dict, refs: list, name: str):
    """Time one stage, then the machine-pace reference after it."""
    with _timed(times, name):
        yield
    refs.append(reference())


def run_lib(dgp: dict, workdir: Path) -> None:
    """One pipeline per ``run`` line on stdin, one JSON line back per pipeline
    with each stage's time and the reference timings around the stages; the
    parent times a set-up between pipelines while this process waits."""
    outputs = None
    reference()  # untimed: first call warms the reference's caches
    for line in sys.stdin:
        if line.strip() != "run":
            break
        times: dict[str, float] = {}
        refs = [reference()]
        outputs = lib_pipeline(dgp, lambda name: _paced(times, refs, name))
        record = {
            "times": times,
            "refs": refs,
            "digest": _digest(outputs),
            "converged": outputs["converged"],
        }
        print(json.dumps(record), flush=True)
    if outputs is not None:
        _save_outputs(outputs, workdir)


def _run_cli(argvs: dict, run_dir: Path, stage) -> dict[str, int]:
    from oplearn import cli

    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir()
    cwd = os.getcwd()
    os.chdir(run_dir)
    codes = {}
    try:
        for cmd in COMMANDS:
            with stage(cmd):
                codes[cmd] = cli.main(argvs[cmd])
    finally:
        os.chdir(cwd)
    return codes


def run_trace(workload, dgp: dict, workdir: Path) -> None:
    """Alternate untraced and traced pipelines, TRACE_PAIRS of each, so that
    the overhead estimate does not favour whichever side runs first."""
    from tracing import Tracer, aggregate, nesting_errors

    tracer = Tracer()
    untraced: dict[str, float] = {cmd: 0.0 for cmd in COMMANDS}
    codes: dict[str, int] = {cmd: 0 for cmd in COMMANDS}
    argvs = cli_argv(workload)

    def pipeline(stage, run_dir: Path) -> None:
        if workload.front_end == "cli":
            for cmd, code in _run_cli(argvs, run_dir, stage).items():
                codes[cmd] = codes[cmd] or code
        else:
            _save_outputs(lib_pipeline(dgp, stage), workdir)

    for run in range(TRACE_PAIRS):
        pipeline(lambda cmd: _timed(untraced, cmd, accumulate=True), workdir / "untraced")
        tracer.install()
        pipeline(lambda cmd: tracer.command((workload.name, run, cmd)), workdir / "run")
        tracer.uninstall()
    probe = stall_probe_iterations()

    spans = tracer.spans
    (workdir / "spans.json").write_text(
        json.dumps(
            [[s.name, s.start, s.end, s.parent, list(s.request), s.counters] for s in spans]
        )
    )
    (workdir / "trace.json").write_text(
        json.dumps(
            {
                "pipelines": TRACE_PAIRS,
                "layers": aggregate(spans),
                "untraced_s": untraced,
                "exit_codes": codes,
                "nesting_errors": nesting_errors(spans),
                "stall_probe_iterations": probe,
            }
        )
    )


def main(argv: list[str]) -> None:
    mode, name, seed, n_units, workdir = argv[:5]
    workload = WORKLOADS[name]
    seed, workdir = int(seed), Path(workdir)

    import oplearn

    src = Path(os.environ["PYTHONPATH"].split(os.pathsep)[0]).resolve()
    if not Path(oplearn.__file__).resolve().is_relative_to(src):
        sys.exit(f"oplearn imported from {oplearn.__file__}, not from {src}")

    if mode == "setup":
        build_input(workload, seed, int(n_units), workdir)
        return
    dgp = dgp_dict(workload, seed, int(n_units))
    if mode == "lib":
        run_lib(dgp, workdir)
    elif mode == "trace":
        run_trace(workload, dgp, workdir)
    else:
        sys.exit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
