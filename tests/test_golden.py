"""Golden artifact hashes of a fixed-seed simulate -> fit -> evaluate -> report run.

Two setups run all four commands: the default CSV tables, and JSON tables
with a ';' delimiter, action codes 10/20/40, an extra text column and
reordered input columns. A third runs ``simulate`` alone on an 8-arm,
10-feature logit DGP, where NumPy sums a row of arms pairwise rather than
in order. Every manifest entry (the input and artifact hashes,
``config.json`` among the artifacts) and the sha256 of each file ``report``
writes must equal the committed values in ``golden_hashes.json``. An
intended artifact change updates that file and says why in CHANGES.md;
rewrite it from the current code with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
from pathlib import Path
from typing import Iterator

import numpy as np

from oplearn import DGPSpec, generate
from oplearn.cli import main

GOLDEN = Path(__file__).with_name("golden_hashes.json")

DGP = {
    "n_units": 600,
    "n_actions": 3,
    "n_features": 2,
    "mean_coeffs": [[4.0, 0.6, -0.3], [3.5, -0.2, 0.8], [4.2, 0.3, 0.3]],
    "noise_scale_coeffs": [[0.2, 0.3, 0.0], [-0.4, 0.0, 0.2], [0.6, -0.2, 0.1]],
    "assignment": "logit",
    "assignment_coeffs": [[0.0, 0.0, 0.0], [0.1, 0.3, -0.2], [-0.1, -0.2, 0.25]],
    "feature_dist": "normal",
    "seed": 2024,
}


def _wide_dgp() -> dict:
    """8 arms, 10 features, 2,000 units; coefficients drawn from a fixed
    seed and rounded, so the hashed config.json holds short decimals."""
    m, p = 8, 10
    rng = np.random.default_rng(880)
    mean = np.column_stack([rng.uniform(3.0, 5.0, m), rng.normal(0.0, 0.4, (m, p))])
    noise = np.column_stack([rng.uniform(-0.5, 1.0, m), rng.normal(0.0, 0.3, (m, p))])
    assign = np.column_stack([np.zeros(m), rng.normal(0.0, 0.5, (m, p))])
    return {
        "n_units": 2000,
        "n_actions": m,
        "n_features": p,
        "mean_coeffs": np.round(mean, 4).tolist(),
        "noise_scale_coeffs": np.round(noise, 4).tolist(),
        "assignment": "logit",
        "assignment_coeffs": np.round(assign, 4).tolist(),
        "feature_dist": "normal",
        "seed": 88,
    }


WIDE_DGP = _wide_dgp()
CODES = (10, 20, 40)
MESSY_COLUMNS = ("x2", "note", "y", "treat", "x1")
REPORT_FILES = (
    "scatter_neutral.svg",
    "scatter_linear.svg",
    "scatter_quadratic.svg",
    "summary.json",
)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_messy_input(path: Path) -> None:
    """The simulated draw with renamed, reordered columns, a text column and
    action codes 10/20/40, written with plain string joins."""
    d = generate(DGPSpec.from_dict(DGP)).dataset
    columns = {
        "y": map(repr, d.outcomes.tolist()),
        "treat": (str(CODES[a]) for a in d.actions.tolist()),
        "note": (f"unit {i}" for i in range(d.n_units)),
        "x1": map(repr, d.features[:, 0].tolist()),
        "x2": map(repr, d.features[:, 1].tolist()),
    }
    lines = [";".join(MESSY_COLUMNS)]
    lines += map(";".join, zip(*(columns[c] for c in MESSY_COLUMNS)))
    path.write_text("\n".join(lines) + "\n")


@contextlib.contextmanager
def _inside(workdir: Path) -> Iterator[None]:
    """Run with relative paths inside ``workdir``, so the hashed configs do
    not depend on where the run happens."""
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        yield
    finally:
        os.chdir(cwd)


def _pipeline(workdir: Path, messy: bool) -> dict:
    """Run the four commands inside ``workdir``."""
    with _inside(workdir):
        Path("dgp.json").write_text(json.dumps({"dgp": DGP}))
        if messy:
            _write_messy_input(Path("input.txt"))
            data, ext = "input.txt", "json"
            io = ["--format", "json", "--delimiter", ";"]
            cols = ["--outcome-col", "y", "--action-col", "treat", "--feature-cols", "x1,x2"]
        else:
            data, ext, io = "sim/dataset.csv", "csv", []
            cols = ["--outcome-col", "outcome", "--action-col", "action", "--feature-cols", "x1,x2"]
        commands = [
            ["simulate", "--config", "dgp.json", "--outdir", "sim", *io],
            ["fit", "--input", data, "--outdir", "fit", *io, *cols],
            [
                "evaluate", "--input", data, "--outdir", "eval",
                "--assignments", f"fit/assignments.{ext}", *io, *cols,
            ],
            ["report", "fit"],
        ]
        for argv in commands:
            assert main(argv) == 0, argv
        hashes = {
            step: json.loads(Path(step, "manifest.json").read_text())
            for step in ("sim", "fit", "eval")
        }
        hashes["report"] = {name: _sha256(Path("fit", name)) for name in REPORT_FILES}
        return hashes


def _simulate_only(workdir: Path, dgp: dict) -> dict:
    """``simulate``'s manifest for ``dgp``, run inside ``workdir``."""
    with _inside(workdir):
        Path("dgp.json").write_text(json.dumps({"dgp": dgp}))
        assert main(["simulate", "--config", "dgp.json", "--outdir", "sim"]) == 0
        return {"sim": json.loads(Path("sim", "manifest.json").read_text())}


def _all_hashes(root: Path) -> dict:
    out = {}
    for name, messy in (("csv", False), ("messy_json", True)):
        (root / name).mkdir()
        out[name] = _pipeline(root / name, messy)
    (root / "wide_sim").mkdir()
    out["wide_sim"] = _simulate_only(root / "wide_sim", WIDE_DGP)
    return out


def test_artifact_hashes_match_golden(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    assert _all_hashes(tmp_path) == golden


if __name__ == "__main__":
    import io
    import tempfile

    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        GOLDEN.write_text(json.dumps(_all_hashes(Path(tmp)), indent=2, sort_keys=True) + "\n")
