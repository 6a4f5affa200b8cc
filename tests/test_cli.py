"""End-to-end command-line pipeline: simulate, fit, evaluate, report."""

import hashlib
import inspect
import json
import os
import shutil
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import oplearn
from oplearn import (
    Dataset,
    DGPSpec,
    RiskPreference,
    assign_policy,
    build_arm_moments,
    clip_propensities,
    fit_mnlogit,
    generate,
    load_dataset,
    oracle_policy,
    predict_proba,
    risk_utility,
    save_dataset,
    true_value,
    validate_dataset,
)
from oplearn.cli import (
    _CONFIG_KEYS,
    _FORMATS,
    _READS,
    PipelineError,
    RunConfig,
    load_config,
    main,
)
from oplearn.reporting import PALETTE, read_csv, write_csv, write_json_table

from helpers import offered_flags, reference_marks, svg_marks

TRADEOFF_DGP = {
    "n_units": 3000,
    "n_actions": 2,
    "n_features": 1,
    "mean_coeffs": [[2.0, 0.2], [2.6, 0.2]],
    "noise_scale_coeffs": [[-0.5, 0.0], [2.2, 0.0]],
    "assignment": "uniform",
    "feature_dist": "normal",
    "seed": 99,
}

LINEAR_DGP = {
    "n_units": 8000,
    "n_actions": 3,
    "n_features": 2,
    "mean_coeffs": [[5.0, 1.0, 0.0], [4.0, 0.0, 1.5], [4.5, 0.8, 0.8]],
    "noise_scale_coeffs": [[0.5, 0.0, 0.0]] * 3,
    "assignment": "uniform",
    "feature_dist": "normal",
    "seed": 4242,
}

# README's 2-arm example
README_DGP = dict(TRADEOFF_DGP, n_units=500, seed=7)

# logit assignment with fitted propensities on both sides of 0.2 and 0.8
CLIP_DGP = {
    "n_units": 2000,
    "n_actions": 2,
    "n_features": 1,
    "mean_coeffs": [[1.0, 0.5], [1.5, -0.5]],
    "noise_scale_coeffs": [[0.0, 0.0], [0.0, 0.0]],
    "assignment": "logit",
    "assignment_coeffs": [[0.0, 0.0], [0.0, 2.0]],
    "feature_dist": "normal",
    "seed": 11,
}

SCHEMA = {"outcome": "outcome", "action": "action", "features": ["x1", "x2"]}
ONE_FEATURE = {"outcome": "outcome", "action": "action", "features": ["x1"]}

# one value away from the default for each config key but outdir, named as
# in README's options table, valid for a command that does not read the key
CHANGED = {
    "input": "nothere.csv",
    "schema": {"outcome": "y", "action": "a", "features": ["z"]},
    "clip": [0.2, 0.8],
    "learner.ridge": 0.5,
    "learner.max_iter": 1,
    "learner.tol": 0.25,
    "format": "json",
    "delimiter": ";",
    "allow_unconverged": True,
    "dgp": {"n_units": 3},
}
UNREAD = [
    pytest.param(command, name, id=f"{command}-{name}")
    for command, keys in _READS.items()
    for name in CHANGED
    if name.split(".")[0] not in keys
]


def write_config(tmp_path, name="config.json", **payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(argv):
    return main(argv)


def assert_fails_with_one_error(argv, capfd, fragment):
    """The command exits 1, prints nothing on stdout and exactly one
    ``error:`` line on stderr, no traceback. Both streams are read at the
    file-descriptor level, so output written from C code counts too."""
    capfd.readouterr()
    assert run(argv) == 1
    out, err = capfd.readouterr()
    assert out == "", out
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert fragment in lines[0]


@pytest.fixture()
def sim_run(tmp_path):
    """simulate + fit on the 3-arm linear DGP; returns the run directory."""
    simdir = tmp_path / "sim"
    cfg = write_config(tmp_path, dgp=LINEAR_DGP, outdir=str(simdir))
    assert run(["simulate", "--config", cfg]) == 0
    rundir = tmp_path / "run"
    fit_cfg = write_config(
        tmp_path,
        name="fit.json",
        input=str(simdir / "dataset.csv"),
        outdir=str(rundir),
        schema=SCHEMA,
    )
    assert run(["fit", "--config", fit_cfg]) == 0
    return {"sim": simdir, "run": rundir, "fit_cfg": fit_cfg, "tmp": tmp_path}


def simulate_and_evaluate(tmp_path, dgp, *flags, **payload):
    """simulate ``dgp``, fit, then evaluate with ``payload`` in the config
    and ``flags``; returns evaluate's exit code and output directory."""
    simdir, fitdir, evaldir = tmp_path / "sim", tmp_path / "fit", tmp_path / "eval"
    assert run(["simulate", "--config", write_config(tmp_path, dgp=dgp, outdir=str(simdir))]) == 0
    data = str(simdir / "dataset.csv")
    cfg = write_config(tmp_path, name="fit.json", input=data, schema=ONE_FEATURE)
    assert run(["fit", "--config", cfg, "--outdir", str(fitdir)]) == 0
    cfg = write_config(tmp_path, name="eval.json", input=data, schema=ONE_FEATURE, **payload)
    argv = ["evaluate", "--config", cfg, "--outdir", str(evaldir)]
    return run([*argv, "--assignments", str(fitdir / "assignments.csv"), *flags]), evaldir


class TestConfig:
    def test_defaults_are_declared_once(self):
        assert load_config(None, {}) == RunConfig()
        # every key but outdir is read, and so hashed, by some command
        read = {key for keys in _READS.values() for key in keys}
        assert read == _CONFIG_KEYS - {"outdir"}

    def test_defaults_equal_the_library_defaults(self):
        # a library run with default arguments computes what a default
        # fit or evaluate writes; perfbench's check that values.json equals
        # its in-memory RA/IPW/DR values rests on this. A test, not shared
        # constants: cli imports neither regression nor values at start-up
        def defaults(fn):
            return {
                name: param.default
                for name, param in inspect.signature(fn).parameters.items()
                if param.default is not param.empty
            }

        config, logit, clip = RunConfig(), defaults(fit_mnlogit), defaults(clip_propensities)
        assert {key: logit[key] for key in ("ridge", "max_iter", "tol")} == {
            "ridge": config.ridge, "max_iter": config.max_iter, "tol": config.tol
        }
        assert (clip["low"], clip["high"]) == config.clip

    def test_every_key_is_echoed_in_config_json(self, tmp_path):
        # one config with every key away from its default serves all three
        # commands; each echoes exactly the keys it reads
        simdir, fitdir = tmp_path / "simulate", tmp_path / "fit"
        payload = {
            "input": str(simdir / "dataset.csv"),
            "schema": {"outcome": "outcome", "action": "action", "features": ["x2", "x1"]},
            "clip": [0.02, 0.9],
            "learner": {"ridge": 0.5, "max_iter": 7, "tol": 0.25},
            "format": "json",
            "delimiter": ";",
            "allow_unconverged": True,
            "dgp": LINEAR_DGP,
        }
        assert set(payload) == _CONFIG_KEYS - {"outdir"}
        cfg = write_config(tmp_path, **payload)
        assert run(["simulate", "--config", cfg, "--outdir", str(simdir)]) == 0
        assert run(["fit", "--config", cfg, "--outdir", str(fitdir)]) == 0
        argv = ["evaluate", "--config", cfg, "--outdir", str(tmp_path / "evaluate")]
        assert run([*argv, "--assignments", str(fitdir / "assignments.json")]) == 0
        # simulate echoes the dgp with every field filled in
        echoed = dict(payload, dgp=DGPSpec.from_dict(LINEAR_DGP).to_dict())
        for command, keys in _READS.items():
            written = json.loads((tmp_path / command / "config.json").read_text())
            default = RunConfig().hash_payload(command)
            assert list(written) == sorted(keys), command
            for key, value in written.items():
                assert value == echoed[key], (command, key)
                assert value != default[key], (command, key)
            for key, value in written.get("learner", {}).items():
                assert value != default["learner"][key], key

    def test_unknown_learner_key_is_an_error(self, sim_run, capfd):
        base = json.loads((sim_run["tmp"] / "fit.json").read_text())
        cfg = write_config(sim_run["tmp"], name="bad.json", **base, learner={"tolerance": 5})
        outdir = sim_run["tmp"] / "bad"
        argv = ["evaluate", "--config", cfg, "--outdir", str(outdir)]
        argv += ["--assignments", str(sim_run["run"] / "assignments.csv")]
        fragment = "unknown config option(s): ['learner.tolerance']"
        assert_fails_with_one_error(argv, capfd, fragment)
        assert not outdir.exists()

    @pytest.mark.parametrize("key, value", [("preferences", ["neutral"]), ("estimators", ["RA"])])
    def test_retired_filter_key_is_unknown(self, tmp_path, capfd, key, value):
        # fit assigns under every preference and evaluate scores with every
        # estimator; the keys that dropped some of them are gone
        cfg = write_config(tmp_path, **{key: value})
        argv = ["fit", "--config", cfg, "--outdir", str(tmp_path / "r")]
        assert_fails_with_one_error(argv, capfd, f"unknown config option(s): ['{key}']")

    @pytest.mark.parametrize("command", ["fit", "evaluate", "simulate"])
    @pytest.mark.parametrize("key, value", [("seed", 5), ("variance_floor", 0.5)])
    def test_retired_run_setting_is_unknown(self, tmp_path, capfd, command, key, value):
        # the draw's seed is dgp.seed alone, and fit's variance floor is
        # build_arm_moments' own default
        cfg = write_config(tmp_path, dgp=LINEAR_DGP, **{key: value})
        argv = [command, "--config", cfg, "--outdir", str(tmp_path / "r")]
        if command == "evaluate":
            argv += ["--assignments", str(tmp_path / "assignments.csv")]
        assert_fails_with_one_error(argv, capfd, f"unknown config option(s): ['{key}']")
        assert not (tmp_path / "r").exists()

    def test_retired_pref_flag_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["fit", "--outdir", str(tmp_path / "r"), "--pref", "neutral"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --pref neutral" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["fit", "evaluate", "simulate"])
    @pytest.mark.parametrize("flag", ["--seed", "--variance-floor"])
    def test_retired_flag_is_a_usage_error(self, tmp_path, command, flag, capsys):
        cfg = write_config(tmp_path, outdir=str(tmp_path / "r"), schema=SCHEMA)
        argv = [command, "--config", cfg, flag, "1"]
        if command == "evaluate":
            argv += ["--assignments", str(tmp_path / "assignments.csv")]
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, offered",
        [
            ("simulate", ["--config", "--outdir", "--format", "--delimiter"]),
            (
                "fit",
                [
                    "--config", "--outdir", "--input", "--outcome-col", "--action-col",
                    "--feature-cols", "--format", "--delimiter",
                ],
            ),
            (
                "evaluate",
                [
                    "--config", "--outdir", "--input", "--outcome-col", "--action-col",
                    "--feature-cols", "--clip", "--format", "--delimiter",
                    "--allow-unconverged", "--assignments",
                ],
            ),
            ("report", []),
        ],
    )
    def test_each_command_offers_only_the_flags_it_reads(self, command, offered):
        # the flags of the keys the command reads, --config and --outdir, and
        # --format, which every command still offers while JSON tables last
        assert offered_flags()[command] == offered

    @pytest.mark.parametrize(
        "command, flags",
        [("simulate", ["--input", "x"]), ("fit", ["--clip", "0.2,0.8"])],
    )
    def test_flag_of_a_key_the_command_does_not_read_is_a_usage_error(
        self, tmp_path, capsys, command, flags
    ):
        with pytest.raises(SystemExit) as exc:
            run([command, "--outdir", str(tmp_path / "r"), *flags])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_clip_flag_sets_the_propensity_clip_bounds(self, tmp_path):
        code, evaldir = simulate_and_evaluate(tmp_path, CLIP_DGP, "--clip", "0.2,0.8")
        assert code == 0
        assert json.loads((evaldir / "config.json").read_text())["clip"] == [0.2, 0.8]
        d = load_dataset(tmp_path / "sim" / "dataset.csv", ONE_FEATURE)
        p = predict_proba(fit_mnlogit(d.features, d.actions), d.features)
        expected = int(((p < 0.2) | (p > 0.8)).sum())
        assert expected > 0
        assert json.loads((evaldir / "report.json").read_text())["clip_count"] == expected

    def test_clip_flag_value_is_checked_like_the_key(self, sim_run, capfd):
        outdir = sim_run["tmp"] / "r"
        argv = ["evaluate", "--config", sim_run["fit_cfg"], "--outdir", str(outdir)]
        argv += ["--assignments", str(sim_run["run"] / "assignments.csv")]
        fragment = "invalid value for config option 'clip': 'a,b'"
        assert_fails_with_one_error([*argv, "--clip", "a,b"], capfd, fragment)
        assert not outdir.exists()

    @pytest.mark.parametrize("allow, code", [(False, 1), (True, 0)])
    def test_unconverged_propensity_fit(self, tmp_path, capsys, allow, code):
        flags = ["--allow-unconverged"] if allow else []
        result, _ = simulate_and_evaluate(tmp_path, README_DGP, *flags, learner={"max_iter": 1})
        assert result == code
        err = capsys.readouterr().err
        assert "warning: propensity model did not converge in 1 iterations" in err

    def test_logit_tolerance_defaults_to_per_unit_scaling(self, tmp_path):
        default = load_config(None, {})
        assert default.tol is None
        assert default.hash_payload("evaluate")["learner"]["tol"] is None
        cfg = write_config(tmp_path, learner={"tol": 1e-8})
        assert load_config(cfg, {}).tol == 1e-8

    @pytest.mark.parametrize(
        "payload, option",
        [
            ({"learner": 5}, "learner"),
            ({"clip": 5}, "clip"),
            ({"clip": [0.1]}, "clip"),
            ({"clip": None}, "clip"),
            ({"format": "xml"}, "format"),
            ({"allow_unconverged": 1}, "allow_unconverged"),
            ({"schema": 5}, "schema"),
            ({"learner": {"ridge": "x"}}, "ridge"),
            ({"learner": {"ridge": -1.0}}, "ridge"),
            ({"learner": {"tol": -1.0}}, "tol"),
            ({"learner": {"tol": True}}, "tol"),
            ({"learner": {"max_iter": True}}, "max_iter"),
            ({"format": None}, "format"),
            ({"allow_unconverged": "true"}, "allow_unconverged"),
            ({"input": ["data.csv"]}, "input"),
            ({"clip": [0.0, 0.5]}, "clip"),
            ({"delimiter": 5}, "delimiter"),
            ({"dgp": [5]}, "dgp"),
            ({"clip": [0.9, 0.1]}, "clip"),
            ({"learner": {"tol": 0}}, "tol"),
            ({"learner": {"max_iter": 2.5}}, "max_iter"),
            ({"input": 5}, "input"),
            ({"learner": {"max_iter": 0}}, "max_iter"),
            ({"schema": dict(SCHEMA, features="x1")}, "schema"),
            ({"schema": dict(SCHEMA, outcome=5)}, "schema"),
            ({"learner": {"ridge": float("inf")}}, "ridge"),
            ({"delimiter": "\n"}, "delimiter"),
            ({"delimiter": "\r"}, "delimiter"),
            ({"delimiter": '"'}, "delimiter"),
        ],
    )
    def test_wrongly_shaped_value_names_the_option(self, tmp_path, capfd, payload, option):
        cfg = write_config(tmp_path, **payload)
        with pytest.raises(PipelineError, match=f"config option '{option}'"):
            load_config(cfg, {})
        argv = ["fit", "--config", cfg, "--outdir", str(tmp_path / "r")]
        assert_fails_with_one_error(argv, capfd, f"config option '{option}'")

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("5", "a config must be a JSON object"),
            ('{"outdir":\n', "Expecting value: line 2 column 1"),
        ],
    )
    def test_unusable_config_file_names_the_file(self, tmp_path, capfd, text, fragment):
        cfg = tmp_path / "config.json"
        cfg.write_text(text)
        argv = ["fit", "--config", str(cfg), "--outdir", str(tmp_path / "r")]
        assert_fails_with_one_error(argv, capfd, f"error: {cfg}: {fragment}")

    def test_config_after_a_byte_order_mark_is_read(self, tmp_path):
        cfg = tmp_path / "config.json"
        cfg.write_bytes(b"\xef\xbb\xbf" + json.dumps({"format": "json"}).encode())
        assert load_config(cfg, {}).format == "json"

    def test_config_that_is_not_utf8_names_the_file(self, tmp_path, capfd):
        cfg = tmp_path / "config.json"
        cfg.write_bytes('{"outdir": "caf\u00e9"}'.encode("latin-1"))
        argv = ["fit", "--config", str(cfg)]
        message = f"error: {cfg}: 'utf-8' codec can't decode byte 0xe9"
        assert_fails_with_one_error(argv, capfd, message)

    def test_learner_numbers_are_hashed_as_floats(self, tmp_path, sim_run):
        # a ridge and a tol of 1 hash the same from a config int or a config float
        records = []
        for name, one in (("int", 1), ("float", 1.0)):
            outdir = tmp_path / name
            cfg = write_config(
                tmp_path,
                name=f"{name}.json",
                input=str(sim_run["sim"] / "dataset.csv"),
                outdir=str(outdir),
                schema=SCHEMA,
                learner={"ridge": one, "tol": one},
            )
            argv = ["evaluate", "--config", cfg]
            assert run([*argv, "--assignments", str(sim_run["run"] / "assignments.csv")]) == 0
            records.append([(outdir / f).read_bytes() for f in ("config.json", "manifest.json")])
        learner = json.loads(records[0][0])["learner"]
        assert (repr(learner["ridge"]), repr(learner["tol"])) == ("1.0", "1.0")
        assert records[0] == records[1]

    @pytest.mark.parametrize("command", ["fit", "simulate"])
    def test_multi_character_delimiter_fails(self, tmp_path, capfd, command):
        cfg = write_config(
            tmp_path,
            dgp=LINEAR_DGP,
            input=str(tmp_path / "data.csv"),
            outdir=str(tmp_path / "r"),
            schema=SCHEMA,
        )
        argv = [command, "--config", cfg, "--delimiter", ";;"]
        assert_fails_with_one_error(argv, capfd, "delimiter must be one character")
        assert not (tmp_path / "r").exists()


@pytest.fixture(scope="module")
def default_runs(tmp_path_factory):
    """One default simulate, fit and evaluate of README's DGP; returns each
    command's base config and argv, and each run's directory."""
    root = tmp_path_factory.mktemp("default")
    data = {"input": str(root / "simulate" / "dataset.csv"), "schema": ONE_FEATURE}
    configs = {"simulate": {"dgp": README_DGP}, "fit": data, "evaluate": data}
    extra = {"evaluate": ["--assignments", str(root / "fit" / "assignments.csv")]}
    for command, config in configs.items():
        cfg = write_config(root, name=f"{command}.json", **config)
        argv = [command, "--config", cfg, "--outdir", str(root / command)]
        assert run([*argv, *extra.get(command, [])]) == 0
    return {"root": root, "configs": configs, "extra": extra}


def run_files(directory):
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())}


class TestUnreadKeys:
    def test_every_key_but_outdir_is_changed(self):
        learner = [f"learner.{f.name}" for f in fields(RunConfig) if f.metadata.get("learner")]
        assert set(CHANGED) == _CONFIG_KEYS - {"outdir", "learner"} | set(learner)

    @pytest.mark.parametrize("command, name", UNREAD)
    def test_unread_key_changes_no_artifact_byte(self, tmp_path, default_runs, command, name):
        # the key is accepted, checked and left out of config.json, so every
        # artifact, config.json and manifest.json included, keeps its bytes
        key, _, sub = name.partition(".")
        value = {sub: CHANGED[name]} if sub else CHANGED[name]
        cfg = write_config(tmp_path, **default_runs["configs"][command], **{key: value})
        argv = [command, "--config", cfg, "--outdir", str(tmp_path / "run")]
        assert run([*argv, *default_runs["extra"].get(command, [])]) == 0
        assert run_files(tmp_path / "run") == run_files(default_runs["root"] / command)


class TestSimulate:
    def test_writes_dataset_and_sidecar(self, tmp_path):
        outdir = tmp_path / "sim"
        cfg = write_config(tmp_path, dgp=LINEAR_DGP, outdir=str(outdir))
        assert run(["simulate", "--config", cfg]) == 0
        assert (outdir / "dataset.csv").exists()
        assert (outdir / "oracle.csv").exists()
        assert (outdir / "manifest.json").exists()
        header = (outdir / "oracle.csv").read_text().splitlines()[0]
        assert header.split(",")[:4] == ["unit", "po_0", "po_1", "po_2"]

    def test_identical_bytes_across_runs(self, tmp_path):
        cfg_a = write_config(tmp_path, name="a.json", dgp=LINEAR_DGP, outdir=str(tmp_path / "a"))
        cfg_b = write_config(tmp_path, name="b.json", dgp=LINEAR_DGP, outdir=str(tmp_path / "b"))
        assert run(["simulate", "--config", cfg_a]) == 0
        assert run(["simulate", "--config", cfg_b]) == 0
        for name in ("dataset.csv", "oracle.csv", "manifest.json"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_dgp_seed_changes_draw(self, tmp_path):
        cfg = write_config(tmp_path, dgp=LINEAR_DGP, outdir=str(tmp_path / "a"))
        assert run(["simulate", "--config", cfg]) == 0
        dgp = dict(LINEAR_DGP, seed=7)
        cfg2 = write_config(tmp_path, name="c2.json", dgp=dgp, outdir=str(tmp_path / "b"))
        assert run(["simulate", "--config", cfg2]) == 0
        assert (tmp_path / "a" / "dataset.csv").read_bytes() != (
            tmp_path / "b" / "dataset.csv"
        ).read_bytes()

    def test_uniform_arm_counts_within_binomial_bound(self, tmp_path):
        dgp = dict(LINEAR_DGP, n_units=1000)
        cfg = write_config(tmp_path, dgp=dgp, outdir=str(tmp_path / "s"))
        assert run(["simulate", "--config", cfg]) == 0
        report = json.loads((tmp_path / "s" / "report.json").read_text())
        counts = report["diagnostics"]["arm_counts"]
        assert all(abs(c - 1000 / 3) <= 80 for c in counts)

    def test_sidecar_consistent_with_observed_outcomes(self, tmp_path):
        cfg = write_config(tmp_path, dgp=dict(LINEAR_DGP, n_units=500), outdir=str(tmp_path / "s"))
        assert run(["simulate", "--config", cfg]) == 0
        data_lines = (tmp_path / "s" / "dataset.csv").read_text().splitlines()[1:]
        oracle_lines = (tmp_path / "s" / "oracle.csv").read_text().splitlines()[1:]
        for dline, oline in zip(data_lines, oracle_lines):
            dcells = dline.split(",")
            ocells = oline.split(",")
            outcome, action = float(dcells[0]), int(dcells[1])
            assert float(ocells[1 + action]) == outcome

    def test_missing_dgp_fails(self, tmp_path):
        cfg = write_config(tmp_path, outdir=str(tmp_path / "s"))
        assert run(["simulate", "--config", cfg]) == 1

    @pytest.mark.parametrize(
        "key, value",
        [
            ("n_units", "5"),
            ("n_units", 5.5),
            ("n_actions", True),
            ("n_features", 1.0),
            ("seed", "x"),
            ("feature_dist", 5),
            ("feature_dist", ["normal", 5]),
            # one name for every column; a list per column is refused
            ("feature_dist", ["normal", "uniform"]),
        ],
    )
    def test_badly_typed_dgp_value_names_the_option(self, tmp_path, capfd, key, value):
        cfg = write_config(tmp_path, dgp={**LINEAR_DGP, key: value}, outdir=str(tmp_path / "s"))
        assert_fails_with_one_error(["simulate", "--config", cfg], capfd, f"DGP option '{key}'")
        assert not (tmp_path / "s").exists()


class TestFit:
    def test_assignment_file_contract(self, sim_run):
        # unit and one action column per preference, in preference order;
        # the utilities are not written (they follow from the moments table)
        rundir = sim_run["run"]
        lines = (rundir / "assignments.csv").read_text().splitlines()
        assert lines[0].split(",") == [
            "unit",
            "neutral_action",
            "linear_action",
            "quadratic_action",
        ]
        assert len(lines) - 1 == LINEAR_DGP["n_units"]
        report = json.loads((rundir / "report.json").read_text())
        for shares in report["action_shares"].values():
            assert abs(sum(shares) - 1.0) < 1e-9

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_fit_writes_assignments_and_wide_moments(self, tmp_path, sim_run, fmt):
        # moments has oracle.csv's layout: unit, mu_0..mu_{M-1}, sigma_0..sigma_{M-1}
        outdir = tmp_path / fmt
        argv = ["fit", "--config", sim_run["fit_cfg"], "--outdir", str(outdir), "--format", fmt]
        assert run(argv) == 0
        tables = [f"assignments.{fmt}", f"moments.{fmt}"]
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert sorted(manifest["artifacts"]) == sorted([*tables, "report.json", "config.json"])
        written = sorted(p.name for p in outdir.iterdir())
        assert written == sorted([*manifest["artifacts"], "manifest.json"])
        moments = build_arm_moments(load_dataset(sim_run["sim"] / "dataset.csv", SCHEMA))
        m = LINEAR_DGP["n_actions"]
        header = ["unit", *(f"mu_{a}" for a in range(m)), *(f"sigma_{a}" for a in range(m))]
        if fmt == "csv":
            names, values = read_csv(outdir / tables[1])
        else:
            records = json.loads((outdir / tables[1]).read_text())
            names, values = header, np.array([[r[k] for k in header] for r in records])
            assert all(sorted(r) == sorted(header) for r in records)
        assert names == header
        assert np.array_equal(values[:, 0], np.arange(LINEAR_DGP["n_units"]))
        assert np.array_equal(values[:, 1 : 1 + m], moments.mu)
        assert np.array_equal(values[:, 1 + m :], moments.sigma)

    def test_rerun_reproduces_identical_bytes(self, tmp_path, sim_run):
        other = tmp_path / "run2"
        assert (
            run(["fit", "--config", sim_run["fit_cfg"], "--outdir", str(other)]) == 0
        )
        for name in ("assignments.csv", "moments.csv", "report.json", "config.json", "manifest.json"):
            assert (sim_run["run"] / name).read_bytes() == (other / name).read_bytes()

    def test_byte_order_mark_before_the_header_is_read_past(self, tmp_path, sim_run):
        # Excel and PowerShell start a CSV file with the UTF-8 byte-order mark
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + (sim_run["sim"] / "dataset.csv").read_bytes())
        outdir = tmp_path / "marked"
        argv = ["fit", "--config", sim_run["fit_cfg"], "--input", str(marked), "--outdir", str(outdir)]
        assert run(argv) == 0
        for name in ("assignments.csv", "moments.csv"):
            assert (outdir / name).read_bytes() == (sim_run["run"] / name).read_bytes()
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert manifest["input_sha256"] == hashlib.sha256(marked.read_bytes()).hexdigest()

    def test_missing_input_fails(self, tmp_path):
        cfg = write_config(
            tmp_path, input=str(tmp_path / "nope.csv"), outdir=str(tmp_path / "r"), schema=SCHEMA
        )
        assert run(["fit", "--config", cfg]) == 1

    def test_schema_flags_override(self, tmp_path, sim_run):
        outdir = tmp_path / "flags"
        code = run(
            [
                "fit",
                "--input",
                str(sim_run["sim"] / "dataset.csv"),
                "--outdir",
                str(outdir),
                "--outcome-col",
                "outcome",
                "--action-col",
                "action",
                "--feature-cols",
                "x1,x2",
            ]
        )
        assert code == 0
        assert (outdir / "assignments.csv").exists()


    @pytest.mark.parametrize("where", ["header", "row"])
    def test_field_beyond_csv_limit_fails_with_one_error(self, tmp_path, capfd, where):
        # csv.reader raises csv.Error, not a ValueError, on a field over
        # 131,072 characters: in the header read, or in the rescan that
        # names the row with the bad x1 cell
        long = '"' + "x" * 140_000 + '"'
        note = long if where == "header" else "note"
        rows = [f"outcome,action,x1,{note}"] + [f"{i},{i % 2},0.{i},n" for i in range(8)]
        rows[3] = f"3,1,0.3,{long}"
        rows[6] = "6,0,abc,n"
        data = tmp_path / "data.csv"
        data.write_text("\n".join(rows) + "\n")
        cfg = write_config(tmp_path, input=str(data), schema=ONE_FEATURE)
        argv = ["fit", "--config", cfg, "--outdir", str(tmp_path / "fit")]
        assert_fails_with_one_error(argv, capfd, f"field larger than field limit (131072) in {data}")

    def test_negative_means_are_warned_once(self, tmp_path, capsys):
        # the count is one per unit, not per risk-averse preference
        dgp = dict(README_DGP, mean_coeffs=[[-0.5, 1.0], [0.5, 1.0]])
        simdir = tmp_path / "sim"
        cfg = write_config(tmp_path, dgp=dgp, outdir=str(simdir))
        assert run(["simulate", "--config", cfg]) == 0
        data = str(simdir / "dataset.csv")
        cfg = write_config(tmp_path, name="fit.json", input=data, schema=ONE_FEATURE)
        capsys.readouterr()
        assert run(["fit", "--config", cfg, "--outdir", str(tmp_path / "fit")]) == 0
        assert capsys.readouterr().err.count("negative mean estimates") == 1


class TestEvaluate:
    def test_values_and_regret(self, tmp_path, sim_run):
        outdir = tmp_path / "eval"
        code = run(
            [
                "evaluate",
                "--config",
                sim_run["fit_cfg"],
                "--assignments",
                str(sim_run["run"] / "assignments.csv"),
                "--outdir",
                str(outdir),
            ]
        )
        assert code == 0
        values = json.loads((outdir / "values.json").read_text())
        rows = {(r["policy_label"], r["estimator"]): r for r in values}
        assert ("neutral", "RA") in rows and ("linear", "DR") in rows
        # first-best regret is zero against itself, non-negative under RA
        assert rows[("neutral", "RA")]["regret_vs_fb"] == 0.0
        for policy in ("linear", "quadratic"):
            assert rows[(policy, "RA")]["regret_vs_fb"] >= 0.0
        diagnostics = json.loads((outdir / "report.json").read_text())["diagnostics"]
        assert diagnostics["propensity_lstsq_steps"] == 0

    def test_ra_value_close_to_oracle_truth(self, tmp_path, sim_run):
        outdir = tmp_path / "eval2"
        assert (
            run(
                [
                    "evaluate",
                    "--config",
                    sim_run["fit_cfg"],
                    "--assignments",
                    str(sim_run["run"] / "assignments.csv"),
                    "--outdir",
                    str(outdir),
                ]
            )
            == 0
        )
        values = json.loads((outdir / "values.json").read_text())
        ra_fb = next(
            r["value"] for r in values if r["policy_label"] == "neutral" and r["estimator"] == "RA"
        )
        oracle = generate(DGPSpec.from_dict(LINEAR_DGP))
        truth = true_value(oracle, oracle_policy(oracle, RiskPreference.NEUTRAL))
        assert abs(ra_fb - truth) / abs(truth) < 0.02

    def test_reports_propensity_information_passes(self, tmp_path, sim_run, monkeypatch):
        # the blocked Hessian is built on step 2 only; the diagnostic
        # counts the builds the fit really made
        from oplearn import regression

        built, information = [], regression._logit_information

        def counting(design, probs):
            built.append(probs.shape)
            return information(design, probs)

        monkeypatch.setattr(regression, "_logit_information", counting)
        outdir = tmp_path / "eval"
        argv = ["evaluate", "--config", sim_run["fit_cfg"], "--outdir", str(outdir)]
        assert run([*argv, "--assignments", str(sim_run["run"] / "assignments.csv")]) == 0
        diagnostics = json.loads((outdir / "report.json").read_text())["diagnostics"]
        assert diagnostics["propensity_iterations"] > 2
        assert diagnostics["propensity_information_passes"] == len(built) == 1

    def test_unit_mismatch_fails(self, tmp_path, sim_run):
        bad = tmp_path / "bad.csv"
        lines = (sim_run["run"] / "assignments.csv").read_text().splitlines()
        bad.write_text("\n".join(lines[:50]) + "\n")
        code = run(
            [
                "evaluate",
                "--config",
                sim_run["fit_cfg"],
                "--assignments",
                str(bad),
                "--outdir",
                str(tmp_path / "e"),
            ]
        )
        assert code == 1

    @pytest.mark.parametrize(
        "damage, fragment",
        [
            ("ragged", "row 3 has 2 fields, expected 4"),
            ("non_numeric", "non-numeric value 'abc' in column 'neutral_action' at row 3"),
            ("fractional", "non-integer id 1.7 in column 'neutral_action' at row 3"),
            ("minus_one", "id -1 outside 0..2 in column 'neutral_action' at row 3"),
            ("arm_m", "id 3 outside 0..2 in column 'neutral_action' at row 3"),
            # a second column of zeros under a kept name
            ("duplicate", "duplicate column 'neutral_action'"),
        ],
    )
    def test_damaged_assignments_fail(self, tmp_path, sim_run, capfd, damage, fragment):
        bad = tmp_path / "assignments.csv"
        lines = (sim_run["run"] / "assignments.csv").read_text().splitlines()
        cells = lines[3].split(",")
        if damage == "ragged":
            cells = cells[:2]
        elif damage == "duplicate":
            lines = [f"{line},{'0' if i else 'neutral_action'}" for i, line in enumerate(lines)]
            cells = lines[3].split(",")
        else:
            bad_cells = {"non_numeric": "abc", "fractional": "1.7", "minus_one": "-1", "arm_m": "3"}
            cells[1] = bad_cells[damage]
        lines[3] = ",".join(cells)
        bad.write_text("\n".join(lines) + "\n")
        argv = ["evaluate", "--config", sim_run["fit_cfg"], "--outdir", str(tmp_path / "e")]
        message = f"error: table {bad}: {fragment}"
        assert_fails_with_one_error([*argv, "--assignments", str(bad)], capfd, message)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_table_with_utility_columns_scores_the_same(self, tmp_path, sim_run, fmt):
        # the layout fit wrote before: after the action columns, one
        # <pref>_utility_<arm> column per preference and arm
        fitdir, olddir = tmp_path / "fit", tmp_path / "old"
        argv = ["fit", "--config", sim_run["fit_cfg"], "--outdir", str(fitdir), "--format", fmt]
        assert run(argv) == 0
        dataset = load_dataset(sim_run["sim"] / "dataset.csv", SCHEMA)
        moments = build_arm_moments(dataset)
        policies = {p.value: assign_policy(moments, p) for p in RiskPreference}
        header = ["unit", *(f"{label}_action" for label in policies)]
        columns = [np.arange(dataset.n_units), *(pol.actions for pol in policies.values())]
        for label, pol in policies.items():
            header += [f"{label}_utility_{a}" for a in range(dataset.n_actions)]
            utility = risk_utility(moments.mu, moments.sigma, moments.sigma2, RiskPreference(label))
            columns += list(utility.T)
        olddir.mkdir()
        write = write_json_table if fmt == "json" else write_csv
        write(olddir / f"assignments.{fmt}", header, columns)
        for table, outdir in ((fitdir, "slim"), (olddir, "wide")):
            argv = ["evaluate", "--config", sim_run["fit_cfg"], "--outdir", str(tmp_path / outdir)]
            assert run([*argv, "--assignments", str(table / f"assignments.{fmt}")]) == 0
        slim = (tmp_path / "slim" / "values.json").read_bytes()
        assert slim == (tmp_path / "wide" / "values.json").read_bytes()

    @pytest.mark.parametrize("case", ["matching", "mismatched", "no_manifest"])
    def test_fit_manifest_must_hash_the_input(self, tmp_path, sim_run, capfd, case):
        data = sim_run["sim"] / "dataset.csv"
        other = tmp_path / "other.csv"
        header, first, *rest = data.read_text().splitlines()
        # the same units with one outcome changed: same N, another input
        other.write_text("\n".join([header, "0.0" + first[first.index(",") :], *rest]) + "\n")
        assignments = sim_run["run"] / "assignments.csv"
        if case == "no_manifest":
            assignments = tmp_path / "assignments.csv"
            shutil.copy(sim_run["run"] / "assignments.csv", assignments)
        argv = [
            "evaluate", "--config", sim_run["fit_cfg"], "--outdir", str(tmp_path / "e"),
            "--assignments", str(assignments),
            "--input", str(data if case == "matching" else other),
        ]
        if case == "mismatched":
            message = (
                f"error: {assignments} was fitted on another input than {other} "
                f"(input_sha256 in {sim_run['run'] / 'manifest.json'} differs)"
            )
            assert_fails_with_one_error(argv, capfd, message)
            assert not (tmp_path / "e").exists()
        else:
            # without a manifest the unit count is all that is checked
            assert run(argv) == 0


    def test_diverging_propensity_fit_fails_with_one_error(self, tmp_path, capfd):
        # a feature on a 1e-3 scale that separates the two arms: without a
        # ridge the logit coefficients grow past the separation cap
        rng = np.random.default_rng(1)
        x = 1e-3 * rng.normal(size=400)
        data = tmp_path / "data.csv"
        columns = [5 + rng.normal(size=400), (x > 0).astype(int), x]
        write_csv(data, ["outcome", "action", "x1"], columns)
        cfg = write_config(tmp_path, input=str(data), schema=ONE_FEATURE)
        assert run(["fit", "--config", cfg, "--outdir", str(tmp_path / "fit")]) == 0
        cfg = write_config(
            tmp_path, name="eval.json", input=str(data), schema=ONE_FEATURE, learner={"ridge": 0}
        )
        argv = ["evaluate", "--config", cfg, "--outdir", str(tmp_path / "eval")]
        argv += ["--assignments", str(tmp_path / "fit" / "assignments.csv")]
        message = "error: propensity model: logit coefficients exceeded 1e6 without converging"
        assert_fails_with_one_error(argv, capfd, message)
        assert not (tmp_path / "eval" / "values.json").exists()


class TestReport:
    def test_scatter_svg_and_share_artifacts(self, sim_run):
        # report adds one SVG per preference and summary.json to a fit run
        # and leaves fit's files alone
        outdir = sim_run["run"]
        before = {p.name: (p.stat().st_mtime_ns, p.read_bytes()) for p in outdir.iterdir()}
        assert run(["report", str(outdir)]) == 0
        after = {p.name: (p.stat().st_mtime_ns, p.read_bytes()) for p in outdir.iterdir()}
        assert sorted(set(after) - set(before)) == [
            "scatter_linear.svg",
            "scatter_neutral.svg",
            "scatter_quadratic.svg",
            "summary.json",
        ]
        assert all(after[name] == before[name] for name in before)
        # one mark per occupied (pixel cell, arm) pair of the n units, at the
        # opacity of k stacked marks, then one legend circle per arm
        # the chosen arm's mu_<a> and sigma_<a>, picked unit by unit
        svg = (outdir / "scatter_neutral.svg").read_text()
        names, values = read_csv(outdir / "moments.csv")
        moments = dict(zip(names, values.T))
        names, values = read_csv(outdir / "assignments.csv")
        arms = values[:, names.index("neutral_action")].astype(int).tolist()
        mu = [moments[f"mu_{a}"][i] for i, a in enumerate(arms)]
        sigma = [moments[f"sigma_{a}"][i] for i, a in enumerate(arms)]
        marks = svg_marks(svg)
        assert marks == reference_marks(sigma, mu, arms, PALETTE)
        assert svg.startswith("<svg") and svg.count("<circle") == len(marks) + 3

    @pytest.mark.parametrize("n_actions", [12, 13])
    def test_arms_beyond_the_palette_fail_before_any_svg(self, tmp_path, capfd, n_actions):
        dgp = dict(
            README_DGP,
            n_units=100 * n_actions,
            n_actions=n_actions,
            mean_coeffs=[[2.0 + 0.1 * a, 0.2] for a in range(n_actions)],
            noise_scale_coeffs=[[0.0, 0.0]] * n_actions,
        )
        simdir, fitdir = tmp_path / "sim", tmp_path / "fit"
        cfg = write_config(tmp_path, dgp=dgp, outdir=str(simdir))
        assert run(["simulate", "--config", cfg]) == 0
        data = str(simdir / "dataset.csv")
        cfg = write_config(tmp_path, name="fit.json", input=data, schema=ONE_FEATURE)
        assert run(["fit", "--config", cfg, "--outdir", str(fitdir)]) == 0
        if n_actions == 12:
            assert run(["report", str(fitdir)]) == 0
            svg = (fitdir / "scatter_neutral.svg").read_text()
            legend = [line for line in svg.splitlines() if 'r="4"' in line]
            assert len({line.split('fill="')[1] for line in legend}) == 12
            return
        message = (
            f"error: table {fitdir / 'moments.csv'}: 13 arms, "
            "but the scatter plots have colours for at most 12"
        )
        assert_fails_with_one_error(["report", str(fitdir)], capfd, message)
        assert list(fitdir.glob("*.svg")) == []

    def test_report_after_json_fit_writes_no_csv(self, tmp_path, sim_run):
        outdir = tmp_path / "jsonfit"
        argv = ["fit", "--config", sim_run["fit_cfg"], "--outdir", str(outdir)]
        assert run([*argv, "--format", "json"]) == 0
        assert run(["report", str(outdir)]) == 0
        assert list(outdir.glob("*.csv")) == []
        assert (outdir / "scatter_quadratic.svg").exists()

    def test_missing_run_dir_fails(self, tmp_path):
        assert run(["report", str(tmp_path / "nothing")]) == 1

    def test_report_reads_the_tables_of_the_last_fit(self, tmp_path, sim_run):
        # a JSON fit on one feature fewer into the directory of a CSV fit
        # leaves the CSV tables behind; report renders the JSON ones that
        # the manifest lists
        refit, fresh, before = sim_run["run"], tmp_path / "fresh", tmp_path / "before"
        shutil.copytree(refit, before)
        assert run(["report", str(before)]) == 0
        flags = ["--format", "json", "--outcome-col", "outcome", "--action-col", "action"]
        flags += ["--feature-cols", "x1"]
        for outdir in (refit, fresh):
            argv = ["fit", "--config", sim_run["fit_cfg"], "--outdir", str(outdir)]
            assert run([*argv, *flags]) == 0
            assert run(["report", str(outdir)]) == 0
        assert (refit / "moments.csv").exists() and (refit / "assignments.csv").exists()
        rendered = ["summary.json"] + [f"scatter_{p.value}.svg" for p in RiskPreference]
        for name in rendered:
            assert (refit / name).read_bytes() == (fresh / name).read_bytes(), name
        # the two fits differ, so rendering the CSV tables would have shown
        assert any((refit / n).read_bytes() != (before / n).read_bytes() for n in rendered)

    def test_summary_ignores_values_of_an_earlier_evaluate(self, tmp_path, sim_run):
        # a fit directory holding an evaluate run's values.json: the values
        # scored another fit's policies, so the summary must not list them
        evaldir, mixdir = tmp_path / "eval", tmp_path / "mix"
        argv = ["evaluate", "--config", sim_run["fit_cfg"], "--outdir", str(evaldir)]
        assert run([*argv, "--assignments", str(sim_run["run"] / "assignments.csv")]) == 0
        argv = ["fit", "--config", sim_run["fit_cfg"], "--outdir", str(mixdir)]
        assert run(argv) == 0
        shutil.copy(evaldir / "values.json", mixdir)
        assert run(["report", str(mixdir)]) == 0
        summary = json.loads((mixdir / "summary.json").read_text())
        assert sorted(summary) == ["action_shares", "mean_chosen_sigma"]

    def test_report_on_evaluate_run_fails(self, tmp_path, sim_run, capfd):
        evaldir = tmp_path / "eval"
        argv = ["evaluate", "--config", sim_run["fit_cfg"], "--outdir", str(evaldir)]
        assert run([*argv, "--assignments", str(sim_run["run"] / "assignments.csv")]) == 0
        assert_fails_with_one_error(["report", str(evaldir)], capfd, "lists no moments table")

    def test_report_without_manifest_fails(self, sim_run, capfd):
        manifest = sim_run["run"] / "manifest.json"
        manifest.unlink()
        message = f"error: missing run manifest {manifest}"
        assert_fails_with_one_error(["report", str(sim_run["run"])], capfd, message)
        assert list(sim_run["run"].glob("*.svg")) == []
        assert not (sim_run["run"] / "summary.json").exists()

    def test_report_does_not_read_fit_record(self, tmp_path, sim_run):
        # report renders from the two tables alone: fit's report.json,
        # deleted or emptied, changes no byte it writes
        deleted, emptied = tmp_path / "deleted", tmp_path / "emptied"
        for rundir in (deleted, emptied):
            shutil.copytree(sim_run["run"], rundir)
        (deleted / "report.json").unlink()
        (emptied / "report.json").write_text("{}")
        rundirs = (sim_run["run"], deleted, emptied)
        for rundir in rundirs:
            assert run(["report", str(rundir)]) == 0
        for name in ["summary.json"] + [f"scatter_{p.value}.svg" for p in RiskPreference]:
            assert len({(rundir / name).read_bytes() for rundir in rundirs}) == 1, name

    @pytest.mark.parametrize(
        "table, damage, fragment",
        [
            # N is the moments row count, so the assignments table has a unit too many
            ("moments", "drop_row", "assignments.csv: id 7999 outside 0..7998 in column 'unit'"),
            ("moments", "swap_units", "moments.csv: unit ids are not 0..7999 in order (8000"),
            ("moments", "drop_sigma_2", "moments.csv: columns ['unit', 'mu_0', 'mu_1', 'mu_2', "),
            ("moments", "nan", "moments.csv has a non-finite mu or sigma"),
            ("assignments", "arm_3", "id 3 outside 0..2 in column 'neutral_action' at row 1"),
            ("assignments", "arm_0.5", "non-integer id 0.5 in column 'neutral_action' at row 1"),
            ("moments", "delete", "missing artifact moments.csv listed in "),
            ("moments", "unlist", "manifest.json: lists no moments table"),
            # a label that would put an SVG outside the run directory
            ("assignments", "path_label", "['../neutral_action'] name no risk preference"),
            # no rows: N would be 0
            ("moments", "header_only", "empty table: "),
            ("assignments", "duplicate", "assignments.csv: duplicate column 'neutral_action'"),
            # as after copying a JSON fit's files into a CSV fit's directory
            ("moments", "list_both", "lists 2 moments tables ['moments.csv', 'moments.json']"),
        ],
    )
    def test_damaged_report_input_fails(self, sim_run, capfd, table, damage, fragment):
        # each damage stops report with one error line, before any SVG
        rundir = sim_run["run"]
        path = rundir / f"{table}.csv"
        rows = [line.split(",") for line in path.read_text().splitlines()]
        if damage == "drop_row":
            rows.pop()
        elif damage == "swap_units":
            rows[1], rows[2] = rows[2], rows[1]
        elif damage == "drop_sigma_2":
            rows = [row[:-1] for row in rows]
        elif damage == "nan":
            rows[5][2] = "nan"
        elif damage.startswith("arm_"):
            rows[1][1] = damage[len("arm_") :]
        elif damage == "path_label":
            rows[0] = [f"../{name}" if name == "neutral_action" else name for name in rows[0]]
        elif damage == "header_only":
            rows = rows[:1]
        elif damage == "duplicate":
            rows = [[*row, "0" if i else "neutral_action"] for i, row in enumerate(rows)]
        path.write_text("".join(",".join(row) + "\n" for row in rows))
        if damage == "delete":
            path.unlink()
        elif damage in ("unlist", "list_both"):
            manifest = json.loads((rundir / "manifest.json").read_text())
            listed = manifest["artifacts"]
            if damage == "unlist":
                del listed["moments.csv"]
            else:
                listed["moments.json"] = listed["moments.csv"]
            (rundir / "manifest.json").write_text(json.dumps(manifest))
        assert_fails_with_one_error(["report", str(rundir)], capfd, fragment)
        assert list(rundir.parent.rglob("*.svg")) == []
        assert list(rundir.parent.rglob("summary.json")) == []

    def test_huge_json_moment_fails(self, tmp_path, sim_run, capfd):
        fitdir = tmp_path / "jsonfit"
        argv = ["fit", "--config", sim_run["fit_cfg"], "--outdir", str(fitdir), "--format", "json"]
        assert run(argv) == 0
        path = fitdir / "moments.json"
        records = json.loads(path.read_text())
        records[5]["mu_1"] = 10**400
        path.write_text(json.dumps(records))
        message = f"error: table {path}: 'mu_1' value beyond the float range"
        assert_fails_with_one_error(["report", str(fitdir)], capfd, message)
        assert list(fitdir.glob("*.svg")) == []

    def test_tradeoff_linear_preference_prefers_low_risk_arm(self, tmp_path):
        simdir = tmp_path / "sim"
        cfg = write_config(tmp_path, dgp=TRADEOFF_DGP, outdir=str(simdir))
        assert run(["simulate", "--config", cfg]) == 0
        rundir = tmp_path / "run"
        fit_cfg = write_config(
            tmp_path,
            name="fit.json",
            input=str(simdir / "dataset.csv"),
            outdir=str(rundir),
            schema={"outcome": "outcome", "action": "action", "features": ["x1"]},
        )
        assert run(["fit", "--config", fit_cfg]) == 0
        assert run(["report", str(rundir)]) == 0
        summary = json.loads((rundir / "summary.json").read_text())
        shares = summary["action_shares"]
        # arm 0 is the low-risk arm; the risk-averse rule uses it more
        assert shares["linear"][0] > shares["neutral"][0]
        sigma_means = summary["mean_chosen_sigma"]
        assert sigma_means["linear"] < sigma_means["neutral"]


class TestRunRecord:
    def test_each_command_records_only_what_it_computed(self, tmp_path, capsys):
        common = {"command", "diagnostics", "warnings"}
        keys = {
            "simulate": common,
            "fit": common | {"action_shares", "clamp_count"},
            "evaluate": common | {"value_table", "clip_count"},
            "report": common | {"action_shares"},
        }
        simdir, fitdir, evaldir = tmp_path / "sim", tmp_path / "fit", tmp_path / "eval"
        data = str(simdir / "dataset.csv")
        cfg = write_config(tmp_path, name="fit.json", input=data, schema=ONE_FEATURE)
        argvs = {
            "simulate": ["simulate", "--config", write_config(tmp_path, dgp=README_DGP)],
            "fit": ["fit", "--config", cfg],
            "evaluate": [
                "evaluate", "--config", cfg,
                "--assignments", str(fitdir / "assignments.csv"),
            ],
        }
        outdirs = {"simulate": simdir, "fit": fitdir, "evaluate": evaldir}
        for command, argv in argvs.items():
            capsys.readouterr()
            assert run([*argv, "--outdir", str(outdirs[command])]) == 0
            printed = capsys.readouterr().out
            assert printed == (outdirs[command] / "report.json").read_text()
            assert set(json.loads(printed)) == keys[command], command
        assert run(["report", str(fitdir)]) == 0
        assert set(json.loads(capsys.readouterr().out)) == keys["report"]

    def test_fit_counts_clamped_cells_and_broken_ties(self, tmp_path):
        # arms 0 and 1 hold the outcome 0.0 exactly, so both fit to a mean
        # and a raw variance of exactly 0, under the floor; arm 2's means are
        # negative, so under every rule each unit's best utility, 0, is tied
        n = 30
        x = np.linspace(-1.0, 1.0, n)
        actions = np.arange(n) % 3
        outcomes = np.where(actions == 2, -2.0 + 0.1 * x, 0.0)
        rows = zip(outcomes.tolist(), actions.tolist(), x.tolist())
        data = tmp_path / "data.csv"
        lines = ["outcome,action,x1", *(f"{y!r},{a},{v!r}" for y, a, v in rows)]
        data.write_text("\n".join(lines) + "\n")
        cfg = write_config(tmp_path, input=str(data), schema=ONE_FEATURE)
        assert run(["fit", "--config", cfg, "--outdir", str(tmp_path / "fit")]) == 0
        record = json.loads((tmp_path / "fit" / "report.json").read_text())
        moments = build_arm_moments(load_dataset(data, ONE_FEATURE))
        assert record["clamp_count"] == moments.n_clamped >= 2 * n
        assert record["diagnostics"]["ties_broken"] == {pref.value: n for pref in RiskPreference}

    def test_evaluate_counts_least_squares_steps(self, tmp_path):
        # twin feature columns and no ridge make every logit Hessian singular,
        # so each Newton step comes from least squares
        d = generate(DGPSpec.from_dict(README_DGP)).dataset
        twin = Dataset(
            outcomes=d.outcomes,
            actions=d.actions,
            features=np.column_stack([d.features, d.features]),
            n_actions=d.n_actions,
        )
        data = tmp_path / "data.csv"
        save_dataset(twin, data)
        cfg = write_config(tmp_path, input=str(data), schema=SCHEMA, learner={"ridge": 0.0})
        assert run(["fit", "--config", cfg, "--outdir", str(tmp_path / "fit")]) == 0
        argv = ["evaluate", "--config", cfg, "--outdir", str(tmp_path / "eval")]
        assert run([*argv, "--assignments", str(tmp_path / "fit" / "assignments.csv")]) == 0
        diagnostics = json.loads((tmp_path / "eval" / "report.json").read_text())["diagnostics"]
        steps = fit_mnlogit(twin.features, twin.actions, ridge=0.0).lstsq_steps
        assert diagnostics["propensity_lstsq_steps"] == steps > 0
        assert diagnostics["propensity_iterations"] == steps

    @pytest.mark.parametrize(
        "command, into", [("evaluate", "fit"), ("simulate", "fit"), ("fit", "sim"), ("fit", "eval")]
    )
    def test_a_command_refuses_the_directory_of_another(self, tmp_path, capfd, command, into):
        # README's sequence, then one command pointed at another's directory
        dirs = {name: tmp_path / name for name in ("sim", "fit", "eval")}
        data = str(dirs["sim"] / "dataset.csv")
        cfg = write_config(tmp_path, name="fit.json", input=data, schema=ONE_FEATURE)
        argvs = {
            "simulate": ["simulate", "--config", write_config(tmp_path, dgp=README_DGP)],
            "fit": ["fit", "--config", cfg],
            "evaluate": [
                "evaluate", "--config", cfg,
                "--assignments", str(dirs["fit"] / "assignments.csv"),
            ],
        }
        for name, argv in zip(dirs, argvs.values()):
            assert run([*argv, "--outdir", str(dirs[name])]) == 0
        files = {path: path.read_bytes() for path in dirs[into].iterdir()}
        found = {"sim": "simulate", "fit": "fit", "eval": "evaluate"}[into]
        message = f"error: {dirs[into]} holds the run record of {found!r}; {command} would"
        assert_fails_with_one_error([*argvs[command], "--outdir", str(dirs[into])], capfd, message)
        assert {path: path.read_bytes() for path in dirs[into].iterdir()} == files
        if into == "fit":
            assert run(["report", str(dirs["fit"])]) == 0

    def test_a_command_reruns_into_its_own_directory(self, tmp_path, sim_run):
        manifests = {d: (sim_run[d] / "manifest.json").read_bytes() for d in ("sim", "run")}
        sim_cfg = write_config(tmp_path, name="sim.json", dgp=LINEAR_DGP)
        assert run(["simulate", "--config", sim_cfg, "--outdir", str(sim_run["sim"])]) == 0
        assert run(["fit", "--config", sim_run["fit_cfg"]]) == 0
        assert {d: (sim_run[d] / "manifest.json").read_bytes() for d in manifests} == manifests
        argv = ["evaluate", "--config", sim_run["fit_cfg"], "--outdir", str(tmp_path / "e")]
        argv += ["--assignments", str(sim_run["run"] / "assignments.csv")]
        assert run(argv) == 0
        values = (tmp_path / "e" / "values.json").read_bytes()
        assert run(argv) == 0
        assert (tmp_path / "e" / "values.json").read_bytes() == values

    def test_closed_stdout_ends_quietly(self, sim_run):
        # stdout is a pipe whose reader has gone: no traceback, report's own code
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = dict(os.environ, PYTHONPATH=str(Path(oplearn.__file__).parents[1]))
        argv = [sys.executable, "-m", "oplearn", "report", str(sim_run["run"])]
        try:
            proc = subprocess.run(
                argv, stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert (sim_run["run"] / "summary.json").exists()

    @pytest.mark.parametrize("fmt", _FORMATS)
    def test_no_file_is_opened_with_the_locale_codec(self, tmp_path, fmt):
        # -X warn_default_encoding warns wherever a text file is opened
        # without an encoding, and -W error makes that warning fail the command
        env = dict(os.environ, PYTHONPATH=str(Path(oplearn.__file__).parents[1]))
        cfg = write_config(
            tmp_path, dgp=README_DGP, input="sim/dataset.csv", schema=ONE_FEATURE, format=fmt
        )
        commands = [
            ["simulate", "--config", cfg, "--outdir", "sim"],
            ["fit", "--config", cfg, "--outdir", "fit"],
            [
                "evaluate", "--config", cfg, "--outdir", "eval",
                "--assignments", f"fit/assignments.{fmt}",
            ],
            ["report", "fit"],
        ]
        python = [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning"]
        for argv in commands:
            proc = subprocess.run(
                [*python, "-m", "oplearn", *argv],
                cwd=tmp_path, env=env, capture_output=True, encoding="utf-8", timeout=120,
            )
            assert proc.returncode == 0, (argv, proc.stderr)

    def test_fit_and_evaluate_validate_the_dataset_once_each(self, tmp_path, sim_run, monkeypatch):
        calls = []

        def counting(dataset):
            calls.append(dataset)
            return validate_dataset(dataset)

        # every module attribute that refers to the function, as a tracer wraps it
        for name, module in list(sys.modules.items()):
            refers = getattr(module, "validate_dataset", None) is validate_dataset
            if name.split(".")[0] == "oplearn" and refers:
                monkeypatch.setattr(module, "validate_dataset", counting)
        assert run(["fit", "--config", sim_run["fit_cfg"], "--outdir", str(tmp_path / "f")]) == 0
        assert len(calls) == 1
        argv = ["evaluate", "--config", sim_run["fit_cfg"], "--outdir", str(tmp_path / "e")]
        assert run([*argv, "--assignments", str(tmp_path / "f" / "assignments.csv")]) == 0
        assert len(calls) == 2


class TestJsonTables:
    def test_fit_and_evaluate_with_json_format(self, tmp_path, sim_run):
        outdir = tmp_path / "jsonrun"
        assert (
            run(
                [
                    "fit",
                    "--config",
                    sim_run["fit_cfg"],
                    "--outdir",
                    str(outdir),
                    "--format",
                    "json",
                ]
            )
            == 0
        )
        assert (outdir / "assignments.json").exists()
        records = json.loads((outdir / "assignments.json").read_text())
        assert len(records) == LINEAR_DGP["n_units"]
        names = {"unit", "neutral_action", "linear_action", "quadratic_action"}
        assert all(record.keys() == names for record in records)
        evaldir = tmp_path / "jsoneval"
        assert (
            run(
                [
                    "evaluate",
                    "--config",
                    sim_run["fit_cfg"],
                    "--assignments",
                    str(outdir / "assignments.json"),
                    "--outdir",
                    str(evaldir),
                ]
            )
            == 0
        )
        assert (evaldir / "values.json").exists()

    def test_csv_and_json_fits_give_identical_values(self, tmp_path, sim_run):
        # a JSON table's keys are sorted (linear, neutral, quadratic) and a
        # CSV table's columns are not; values.json follows neither
        values = []
        for fmt in _FORMATS:
            fitdir, evaldir = tmp_path / f"fit_{fmt}", tmp_path / f"eval_{fmt}"
            argv = ["fit", "--config", sim_run["fit_cfg"], "--outdir", str(fitdir)]
            assert run([*argv, "--format", fmt]) == 0
            argv = ["evaluate", "--config", sim_run["fit_cfg"], "--outdir", str(evaldir)]
            assert run([*argv, "--assignments", str(fitdir / f"assignments.{fmt}")]) == 0
            values.append((evaldir / "values.json").read_bytes())
        assert values[0] == values[1]

    def test_values_rows_in_preference_then_table_order(self, tmp_path, sim_run):
        names, cells = read_csv(sim_run["run"] / "assignments.csv", lambda h: True)
        neutral = cells[:, names.index("neutral_action")]
        header = ["unit", "zeta_action", "quadratic_action", "alpha_action", "neutral_action"]
        path = tmp_path / "assignments.csv"
        write_csv(path, header, [cells[:, 0], neutral, neutral, neutral, neutral])
        evaldir = tmp_path / "eval"
        argv = ["evaluate", "--config", sim_run["fit_cfg"], "--outdir", str(evaldir)]
        assert run([*argv, "--assignments", str(path)]) == 0
        rows = json.loads((evaldir / "values.json").read_text())
        labels = list(dict.fromkeys(row["policy_label"] for row in rows))
        assert labels == ["neutral", "quadratic", "zeta", "alpha"]

    def test_json_assignments_after_a_byte_order_mark_score_the_same(self, tmp_path, sim_run):
        fitdir = tmp_path / "jsonfit"
        argv = ["fit", "--config", sim_run["fit_cfg"], "--outdir", str(fitdir), "--format", "json"]
        assert run(argv) == 0
        marked = tmp_path / "assignments.json"
        marked.write_bytes(b"\xef\xbb\xbf" + (fitdir / "assignments.json").read_bytes())
        values = []
        for table, name in ((fitdir / "assignments.json", "plain"), (marked, "marked")):
            argv = ["evaluate", "--config", sim_run["fit_cfg"], "--outdir", str(tmp_path / name)]
            assert run([*argv, "--assignments", str(table)]) == 0
            values.append((tmp_path / name / "values.json").read_bytes())
        assert values[0] == values[1]

    @pytest.mark.parametrize(
        "damage, fragment",
        [
            ("drop_unit", "a record has no 'unit' key"),
            ("null_action", "non-numeric 'neutral_action'"),
            # cells that float() would take: only a JSON number is one
            ("string_unit", "non-numeric 'unit'"),
            ("bool_action", "non-numeric 'neutral_action'"),
            ("padded_action", "non-numeric 'neutral_action'"),
            # a JSON integer beyond the float range
            ("huge_action", "'neutral_action' value beyond the float range"),
        ],
    )
    def test_malformed_json_assignments_fail(self, tmp_path, sim_run, capfd, damage, fragment):
        fitdir = tmp_path / "jsonfit"
        argv = ["fit", "--config", sim_run["fit_cfg"], "--outdir", str(fitdir), "--format", "json"]
        assert run(argv) == 0
        path = fitdir / "assignments.json"
        records = json.loads(path.read_text())
        if damage == "drop_unit":
            del records[3]["unit"]
        else:
            key = "unit" if damage == "string_unit" else "neutral_action"
            value = records[3][key]
            bad = {
                "null_action": None,
                "string_unit": str(value),
                "bool_action": value == 1,
                "huge_action": 10**400,
            }
            records[3][key] = bad.get(damage, f" {value} ")
        path.write_text(json.dumps(records))
        argv = ["evaluate", "--config", sim_run["fit_cfg"], "--outdir", str(tmp_path / "e")]
        assert_fails_with_one_error([*argv, "--assignments", str(path)], capfd, fragment)

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ('{"a": 1}', "a table must be a JSON list of objects"),
            ('[{"unit": 0, "neutral_action": 1},\n', "Expecting value: line 2 column 1"),
        ],
    )
    def test_unusable_json_assignments_name_the_file(self, tmp_path, sim_run, capfd, text, fragment):
        path = tmp_path / "assignments.json"
        path.write_text(text)
        argv = ["evaluate", "--config", sim_run["fit_cfg"], "--outdir", str(tmp_path / "e")]
        message = f"error: {path}: {fragment}"
        assert_fails_with_one_error([*argv, "--assignments", str(path)], capfd, message)
