"""README's library example runs as written, its options table lists the
CLI's config keys and the commands that read each, and its flags table the
flags each command offers."""

import re
from dataclasses import fields
from pathlib import Path

from oplearn import DGPSpec, generate
from oplearn.cli import _READS, RunConfig

from helpers import offered_flags

README = Path(__file__).resolve().parents[1] / "README.md"

DGP = {
    "n_units": 600,
    "n_actions": 3,
    "n_features": 2,
    "mean_coeffs": [[5.0, 1.0, 0.0], [4.0, 0.0, 1.5], [4.5, 0.8, 0.8]],
    "noise_scale_coeffs": [[-0.5, 0.2, 0.0], [0.0, 0.0, 0.3], [0.3, -0.2, 0.0]],
    "assignment": "uniform",
    "feature_dist": "normal",
    "seed": 31,
}


def test_library_example_runs(tmp_path, monkeypatch, capsys):
    block = re.search(r"\n## Library\n.*?```python\n(.*?)```", README.read_text(), re.S)
    d = generate(DGPSpec.from_dict(DGP)).dataset
    rows = zip(d.outcomes.tolist(), d.actions.tolist(), *d.features.T.tolist())
    lines = ["y,a,x1,x2", *(f"{y!r},{a},{x1!r},{x2!r}" for y, a, x1, x2 in rows)]
    (tmp_path / "data.csv").write_text("\n".join(lines) + "\n")
    monkeypatch.chdir(tmp_path)
    exec(compile(block.group(1), str(README), "exec"), {})
    assert "regret:" in capsys.readouterr().out


def test_options_table_lists_exactly_the_config_keys():
    # the first cell of each row opens with the key, and the last names the
    # commands that read it; the learner keys are spelled out as
    # learner.<key>, in RunConfig's field order, and outdir is read by all
    header = r"\n\| key \| flag \| default \| read by \|\n\|[-|]+\|\n"
    table = re.search(header + r"((?:\|.*\n)+)", README.read_text())
    rows = table.group(1).splitlines()
    listed = [re.match(r"\| `([\w.]+)`", row).group(1) for row in rows]
    keys = [
        f"learner.{f.name}" if f.metadata.get("learner") else f.name for f in fields(RunConfig)
    ]
    assert listed == keys
    read_by = {key: row.rstrip(" |").rsplit("| ", 1)[1] for key, row in zip(listed, rows)}
    for key in keys:
        name = key.partition(".")[0]
        readers = [c for c, read in _READS.items() if name in read or name == "outdir"]
        assert read_by[key] == ", ".join(readers), key


def test_flags_table_lists_the_flags_each_command_offers():
    header = r"\n\| command \| flags \|\n\|[-|]+\|\n"
    table = re.search(header + r"((?:\|.*\n)+)", README.read_text())
    listed = {}
    for row in table.group(1).splitlines():
        command, flags = re.match(r"\| `(\w+)` \| (.*) \|$", row).groups()
        listed[command] = re.findall(r"`(--[\w-]+)`", flags)
    assert listed == offered_flags()
