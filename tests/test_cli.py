"""End-to-end command-line pipeline: simulate, fit, evaluate, report."""

import json
import shutil

import pytest

from oplearn import (
    DGPSpec,
    RiskPreference,
    fit_mnlogit,
    generate,
    load_dataset,
    oracle_policy,
    predict_proba,
    true_value,
)
from oplearn.cli import _CONFIG_KEYS, PipelineError, RunConfig, load_config, main

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


def write_config(tmp_path, name="config.json", **payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(argv):
    return main(argv)


def assert_fails_with_one_error(argv, capsys, fragment):
    """The command exits 1 and prints exactly one ``error:`` line, no traceback."""
    capsys.readouterr()
    assert run(argv) == 1
    lines = capsys.readouterr().err.splitlines()
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
        assert set(RunConfig().hash_payload()) == _CONFIG_KEYS - {"outdir"}

    def test_every_key_is_echoed_in_config_json(self, tmp_path):
        simdir = tmp_path / "sim"
        cfg = write_config(tmp_path, dgp=LINEAR_DGP, outdir=str(simdir), delimiter=";")
        assert run(["simulate", "--config", cfg]) == 0
        payload = {
            "input": str(simdir / "dataset.csv"),
            "outdir": str(tmp_path / "fit"),
            "schema": {"outcome": "outcome", "action": "action", "features": ["x2", "x1"]},
            "preferences": ["quadratic", "neutral"],
            "variance_floor": 0.001,
            "clip": [0.02, 0.9],
            "learner": {"ridge": 0.5, "max_iter": 7, "tol": 0.25},
            "estimators": ["DR", "RA"],
            "seed": 5,
            "format": "json",
            "delimiter": ";",
            "allow_unconverged": True,
            "dgp": {"n_units": 3},
        }
        assert set(payload) == _CONFIG_KEYS
        assert run(["fit", "--config", write_config(tmp_path, name="fit.json", **payload)]) == 0
        written = json.loads((tmp_path / "fit" / "config.json").read_text())
        default = RunConfig().hash_payload()
        assert set(written) == set(payload) - {"outdir"}
        for key, value in written.items():
            assert value == payload[key], key
            assert value != default[key], key
        for key, value in written["learner"].items():
            assert value != default["learner"][key], key

    def test_unknown_learner_key_is_an_error(self, sim_run, capsys):
        base = json.loads((sim_run["tmp"] / "fit.json").read_text())
        cfg = write_config(sim_run["tmp"], name="bad.json", **base, learner={"tolerance": 5})
        outdir = sim_run["tmp"] / "bad"
        argv = ["evaluate", "--config", cfg, "--outdir", str(outdir)]
        argv += ["--assignments", str(sim_run["run"] / "assignments.csv")]
        fragment = "unknown config option(s): ['learner.tolerance']"
        assert_fails_with_one_error(argv, capsys, fragment)
        assert not outdir.exists()

    def test_clip_flag_sets_the_propensity_clip_bounds(self, tmp_path):
        code, evaldir = simulate_and_evaluate(tmp_path, CLIP_DGP, "--clip", "0.2,0.8")
        assert code == 0
        assert json.loads((evaldir / "config.json").read_text())["clip"] == [0.2, 0.8]
        d = load_dataset(tmp_path / "sim" / "dataset.csv", ONE_FEATURE)
        p = predict_proba(fit_mnlogit(d.features, d.actions), d.features)
        expected = int(((p < 0.2) | (p > 0.8)).sum())
        assert expected > 0
        assert json.loads((evaldir / "report.json").read_text())["clip_count"] == expected

    def test_clip_flag_value_is_checked_like_the_key(self, sim_run, capsys):
        argv = ["fit", "--config", sim_run["fit_cfg"], "--outdir", str(sim_run["tmp"] / "r")]
        fragment = "invalid value for config option 'clip': 'a,b'"
        assert_fails_with_one_error([*argv, "--clip", "a,b"], capsys, fragment)

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
        assert default.hash_payload()["learner"]["tol"] is None
        cfg = write_config(tmp_path, learner={"tol": 1e-8})
        assert load_config(cfg, {}).tol == 1e-8

    @pytest.mark.parametrize(
        "payload, option",
        [
            ({"learner": 5}, "learner"),
            ({"clip": 5}, "clip"),
            ({"clip": [0.1]}, "clip"),
            ({"clip": None}, "clip"),
            ({"preferences": 5}, "preferences"),
            ({"estimators": 5}, "estimators"),
            ({"schema": 5}, "schema"),
            ({"learner": {"ridge": "x"}}, "ridge"),
            ({"variance_floor": "x"}, "variance_floor"),
            ({"variance_floor": 0}, "variance_floor"),
            ({"variance_floor": -1.0}, "variance_floor"),
            ({"variance_floor": float("nan")}, "variance_floor"),
            ({"seed": "x"}, "seed"),
            ({"seed": 1.5}, "seed"),
            ({"seed": False}, "seed"),
            ({"variance_floor": True}, "variance_floor"),
            ({"delimiter": 5}, "delimiter"),
            ({"estimators": "RA"}, "estimators"),
            ({"preferences": []}, "preferences"),
            ({"estimators": []}, "estimators"),
            ({"learner": {"max_iter": 2.5}}, "max_iter"),
            ({"input": 5}, "input"),
            ({"preferences": ["linear", "linear"]}, "preferences"),
            ({"schema": dict(SCHEMA, features="x1")}, "schema"),
            ({"schema": dict(SCHEMA, outcome=5)}, "schema"),
        ],
    )
    def test_wrongly_shaped_value_names_the_option(self, tmp_path, capsys, payload, option):
        cfg = write_config(tmp_path, **payload)
        with pytest.raises(PipelineError, match=f"config option '{option}'"):
            load_config(cfg, {})
        argv = ["fit", "--config", cfg, "--outdir", str(tmp_path / "r")]
        assert_fails_with_one_error(argv, capsys, f"config option '{option}'")

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("5", "a config must be a JSON object"),
            ('{"outdir":\n', "Expecting value: line 2 column 1"),
        ],
    )
    def test_unusable_config_file_names_the_file(self, tmp_path, capsys, text, fragment):
        cfg = tmp_path / "config.json"
        cfg.write_text(text)
        argv = ["fit", "--config", str(cfg), "--outdir", str(tmp_path / "r")]
        assert_fails_with_one_error(argv, capsys, f"error: {cfg}: {fragment}")

    def test_negative_variance_floor_flag_fails_before_fitting(self, sim_run, capsys):
        argv = ["fit", "--config", sim_run["fit_cfg"], "--outdir", str(sim_run["tmp"] / "r")]
        fragment = "invalid value for config option 'variance_floor': -1.0"
        assert_fails_with_one_error([*argv, "--variance-floor", "-1"], capsys, fragment)
        assert not (sim_run["tmp"] / "r").exists()

    def test_variance_floor_is_hashed_as_a_float(self, tmp_path, sim_run):
        # a floor of 1 hashes the same from a config int, a config float or the flag
        runs = {
            "config_int": ({"variance_floor": 1}, []),
            "config_float": ({"variance_floor": 1.0}, []),
            "flag": ({}, ["--variance-floor", "1"]),
        }
        records = []
        for name, (payload, flags) in runs.items():
            outdir = tmp_path / name
            cfg = write_config(
                tmp_path,
                name=f"{name}.json",
                input=str(sim_run["sim"] / "dataset.csv"),
                outdir=str(outdir),
                schema=SCHEMA,
                seed=3,
                **payload,
            )
            assert run(["fit", "--config", cfg, "--pref", "neutral", *flags]) == 0
            records.append([(outdir / f).read_bytes() for f in ("config.json", "manifest.json")])
        written = json.loads(records[0][0])
        assert written["seed"] == 3
        assert repr(written["variance_floor"]) == "1.0"
        assert records[0] == records[1] == records[2]

    @pytest.mark.parametrize("command", ["fit", "simulate"])
    def test_multi_character_delimiter_fails(self, tmp_path, capsys, command):
        cfg = write_config(
            tmp_path,
            dgp=LINEAR_DGP,
            input=str(tmp_path / "data.csv"),
            outdir=str(tmp_path / "r"),
            schema=SCHEMA,
        )
        argv = [command, "--config", cfg, "--delimiter", ";;"]
        assert_fails_with_one_error(argv, capsys, "delimiter must be one character")
        assert not (tmp_path / "r").exists()


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

    def test_seed_flag_changes_draw(self, tmp_path):
        cfg = write_config(tmp_path, dgp=LINEAR_DGP, outdir=str(tmp_path / "a"))
        assert run(["simulate", "--config", cfg]) == 0
        cfg2 = write_config(tmp_path, name="c2.json", dgp=LINEAR_DGP, outdir=str(tmp_path / "b"))
        assert run(["simulate", "--config", cfg2, "--seed", "7"]) == 0
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


class TestFit:
    def test_assignment_file_contract(self, sim_run):
        rundir = sim_run["run"]
        lines = (rundir / "assignments.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header[:4] == [
            "unit",
            "neutral_action",
            "linear_action",
            "quadratic_action",
        ]
        assert len(lines) - 1 == LINEAR_DGP["n_units"]
        report = json.loads((rundir / "report.json").read_text())
        for shares in report["action_shares"].values():
            assert abs(sum(shares) - 1.0) < 1e-9

    def test_single_preference_run(self, tmp_path, sim_run):
        outdir = tmp_path / "neutral_only"
        assert (
            run(
                [
                    "fit",
                    "--config",
                    sim_run["fit_cfg"],
                    "--outdir",
                    str(outdir),
                    "--pref",
                    "neutral",
                ]
            )
            == 0
        )
        header = (outdir / "assignments.csv").read_text().splitlines()[0]
        assert "linear_action" not in header
        assert "neutral_action" in header

    def test_rerun_reproduces_identical_bytes(self, tmp_path, sim_run):
        other = tmp_path / "run2"
        assert (
            run(["fit", "--config", sim_run["fit_cfg"], "--outdir", str(other)]) == 0
        )
        for name in ("assignments.csv", "moments.csv", "report.json", "config.json", "manifest.json"):
            assert (sim_run["run"] / name).read_bytes() == (other / name).read_bytes()

    def test_missing_input_fails(self, tmp_path):
        cfg = write_config(
            tmp_path, input=str(tmp_path / "nope.csv"), outdir=str(tmp_path / "r"), schema=SCHEMA
        )
        assert run(["fit", "--config", cfg]) == 1

    @pytest.mark.parametrize("command", ["fit", "evaluate"])
    def test_seed_flag_is_simulate_only(self, tmp_path, command, capsys):
        cfg = write_config(tmp_path, outdir=str(tmp_path / "r"), schema=SCHEMA)
        argv = [command, "--config", cfg, "--seed", "1"]
        if command == "evaluate":
            argv += ["--assignments", str(tmp_path / "assignments.csv")]
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err

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
                "--pref",
                "neutral",
            ]
        )
        assert code == 0
        assert (outdir / "assignments.csv").exists()


    def test_negative_means_are_warned_once(self, tmp_path, capsys):
        # the count is one per unit, not per risk-averse preference
        dgp = dict(README_DGP, mean_coeffs=[[-0.5, 1.0], [0.5, 1.0]])
        simdir = tmp_path / "sim"
        cfg = write_config(tmp_path, dgp=dgp, outdir=str(simdir))
        assert run(["simulate", "--config", cfg]) == 0
        data = str(simdir / "dataset.csv")
        cfg = write_config(tmp_path, name="fit.json", input=data, schema=ONE_FEATURE)
        argv = ["fit", "--config", cfg, "--outdir", str(tmp_path / "fit")]
        for flags, expected in (([], 1), (["--pref", "neutral"], 0)):
            capsys.readouterr()
            assert run([*argv, *flags]) == 0
            assert capsys.readouterr().err.count("negative mean estimates") == expected


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
            ("ragged", "row 3 has 2 fields, expected 13"),
            ("non_numeric", "non-numeric value 'abc' in column 'neutral_action' at row 3"),
            ("fractional", "non-integer id 1.7 in column 'neutral_action' at row 3"),
            ("minus_one", "id -1 outside 0..2 in column 'neutral_action' at row 3"),
            ("arm_m", "id 3 outside 0..2 in column 'neutral_action' at row 3"),
        ],
    )
    def test_damaged_assignments_fail(self, tmp_path, sim_run, capsys, damage, fragment):
        bad = tmp_path / "assignments.csv"
        lines = (sim_run["run"] / "assignments.csv").read_text().splitlines()
        cells = lines[3].split(",")
        if damage == "ragged":
            cells = cells[:2]
        else:
            bad_cells = {"non_numeric": "abc", "fractional": "1.7", "minus_one": "-1", "arm_m": "3"}
            cells[1] = bad_cells[damage]
        lines[3] = ",".join(cells)
        bad.write_text("\n".join(lines) + "\n")
        argv = ["evaluate", "--config", sim_run["fit_cfg"], "--outdir", str(tmp_path / "e")]
        message = f"error: table {bad}: {fragment}"
        assert_fails_with_one_error([*argv, "--assignments", str(bad)], capsys, message)


class TestReport:
    def test_scatter_svg_and_share_artifacts(self, tmp_path, sim_run):
        # a 2-preference fit writes 2 scatter tables and 1 share table;
        # report adds 2 SVGs and summary.json and leaves fit's files alone
        outdir = tmp_path / "two_pref"
        assert (
            run(
                [
                    "fit",
                    "--config",
                    sim_run["fit_cfg"],
                    "--outdir",
                    str(outdir),
                    "--pref",
                    "neutral",
                    "--pref",
                    "linear",
                ]
            )
            == 0
        )
        scatters = sorted(p.name for p in outdir.glob("scatter_*.csv"))
        assert scatters == ["scatter_linear.csv", "scatter_neutral.csv"]
        assert (outdir / "shares.csv").exists()
        n = LINEAR_DGP["n_units"]
        for name in scatters:
            assert len((outdir / name).read_text().splitlines()) - 1 == n
        before = {p.name: (p.stat().st_mtime_ns, p.read_bytes()) for p in outdir.iterdir()}
        assert run(["report", str(outdir)]) == 0
        after = {p.name: (p.stat().st_mtime_ns, p.read_bytes()) for p in outdir.iterdir()}
        assert sorted(set(after) - set(before)) == [
            "scatter_linear.svg",
            "scatter_neutral.svg",
            "summary.json",
        ]
        assert all(after[name] == before[name] for name in before)
        svg = (outdir / "scatter_neutral.svg").read_text()
        assert svg.startswith("<svg") and svg.count("<circle") >= n

    def test_report_after_json_fit_writes_no_csv(self, tmp_path, sim_run):
        outdir = tmp_path / "jsonfit"
        argv = ["fit", "--config", sim_run["fit_cfg"], "--outdir", str(outdir)]
        assert run([*argv, "--format", "json"]) == 0
        assert run(["report", str(outdir)]) == 0
        assert list(outdir.glob("*.csv")) == []
        assert (outdir / "scatter_quadratic.svg").exists()

    def test_missing_run_dir_fails(self, tmp_path):
        assert run(["report", str(tmp_path / "nothing")]) == 1

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_report_needs_neither_moments_nor_assignments(self, tmp_path, sim_run, fmt):
        full, bare = tmp_path / f"full_{fmt}", tmp_path / f"bare_{fmt}"
        argv = ["fit", "--config", sim_run["fit_cfg"], "--outdir", str(full), "--format", fmt]
        assert run(argv) == 0
        shutil.copytree(full, bare)
        for stem in ("moments", "assignments"):
            (bare / f"{stem}.{fmt}").unlink()
        assert run(["report", str(full)]) == 0
        assert run(["report", str(bare)]) == 0
        rendered = ["summary.json"] + [f"scatter_{p.value}.svg" for p in RiskPreference]
        for name in rendered:
            assert (bare / name).read_bytes() == (full / name).read_bytes(), name

    def test_summary_ignores_values_of_an_earlier_evaluate(self, tmp_path, sim_run):
        # an evaluate run and a later fit share one directory: the values
        # scored another fit's policies, so the summary must not list them
        mixdir = tmp_path / "mix"
        argv = ["evaluate", "--config", sim_run["fit_cfg"], "--outdir", str(mixdir)]
        assert run([*argv, "--assignments", str(sim_run["run"] / "assignments.csv")]) == 0
        argv = ["fit", "--config", sim_run["fit_cfg"], "--outdir", str(mixdir)]
        assert run([*argv, "--pref", "neutral"]) == 0
        assert run(["report", str(mixdir)]) == 0
        summary = json.loads((mixdir / "summary.json").read_text())
        assert sorted(summary) == ["action_shares", "mean_chosen_sigma"]

    def test_report_on_evaluate_run_fails(self, tmp_path, sim_run, capsys):
        evaldir = tmp_path / "eval"
        argv = ["evaluate", "--config", sim_run["fit_cfg"], "--outdir", str(evaldir)]
        assert run([*argv, "--assignments", str(sim_run["run"] / "assignments.csv")]) == 0
        assert_fails_with_one_error(["report", str(evaldir)], capsys, "not the record of a fit run")

    def test_report_without_fit_record_fails(self, sim_run, capsys):
        (sim_run["run"] / "report.json").unlink()
        assert_fails_with_one_error(["report", str(sim_run["run"])], capsys, "missing run record")

    @pytest.mark.parametrize(
        "damage, fragment",
        [
            ("no_n_actions", "lacks action_shares"),
            ("string_shares", "action_shares must map preference names"),
            ("short_shares", "action_shares must map preference names"),
            ("sum_not_one", "action_shares must map preference names"),
            ("path_label", "action_shares must map preference names"),
        ],
    )
    def test_report_with_damaged_fit_record_fails(self, sim_run, capsys, damage, fragment):
        path = sim_run["run"] / "report.json"
        record = json.loads(path.read_text())
        shares = record["action_shares"]
        if damage == "no_n_actions":
            del record["diagnostics"]["n_actions"]
        elif damage == "string_shares":
            shares["neutral"] = "ab"
        elif damage == "short_shares":
            shares["neutral"] = [0.5, 0.5]
        elif damage == "sum_not_one":
            shares["neutral"] = [0.5, 0.5, 0.5]
        else:
            shares["../neutral"] = shares.pop("neutral")
        path.write_text(json.dumps(record))
        message = f"error: {path}: {fragment}"
        assert_fails_with_one_error(["report", str(sim_run["run"])], capsys, message)
        assert not (sim_run["run"] / "summary.json").exists()

    @pytest.mark.parametrize(
        "damage, fragment",
        [
            ("drop_row", "rows for 8000 units"),
            ("action_out_of_range", "id 3 outside 0..2 in column 'action' at row 1"),
            ("fractional_action", "non-integer id 0.5 in column 'action' at row 1"),
            ("delete", "missing artifact scatter_neutral.csv"),
        ],
    )
    def test_damaged_scatter_table_fails(self, sim_run, capsys, damage, fragment):
        path = sim_run["run"] / "scatter_neutral.csv"
        lines = path.read_text().splitlines()
        if damage == "drop_row":
            lines.pop()
        elif damage == "action_out_of_range":
            cells = lines[1].split(",")
            cells[1] = str(LINEAR_DGP["n_actions"])
            lines[1] = ",".join(cells)
        elif damage == "fractional_action":
            cells = lines[1].split(",")
            cells[1] = "0.5"
            lines[1] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        if damage == "delete":
            path.unlink()
        assert_fails_with_one_error(["report", str(sim_run["run"])], capsys, fragment)

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
        assert "neutral_action" in records[0]
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

    @pytest.mark.parametrize(
        "damage, fragment",
        [
            ("drop_unit", "a record has no 'unit' key"),
            ("null_action", "non-numeric 'neutral_action'"),
        ],
    )
    def test_malformed_json_assignments_fail(self, tmp_path, sim_run, capsys, damage, fragment):
        fitdir = tmp_path / "jsonfit"
        argv = ["fit", "--config", sim_run["fit_cfg"], "--outdir", str(fitdir), "--format", "json"]
        assert run(argv) == 0
        path = fitdir / "assignments.json"
        records = json.loads(path.read_text())
        if damage == "drop_unit":
            del records[3]["unit"]
        else:
            records[3]["neutral_action"] = None
        path.write_text(json.dumps(records))
        argv = ["evaluate", "--config", sim_run["fit_cfg"], "--outdir", str(tmp_path / "e")]
        assert_fails_with_one_error([*argv, "--assignments", str(path)], capsys, fragment)

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ('{"a": 1}', "a table must be a JSON list of objects"),
            ('[{"unit": 0, "neutral_action": 1},\n', "Expecting value: line 2 column 1"),
        ],
    )
    def test_unusable_json_assignments_name_the_file(self, tmp_path, sim_run, capsys, text, fragment):
        path = tmp_path / "assignments.json"
        path.write_text(text)
        argv = ["evaluate", "--config", sim_run["fit_cfg"], "--outdir", str(tmp_path / "e")]
        message = f"error: {path}: {fragment}"
        assert_fails_with_one_error([*argv, "--assignments", str(path)], capsys, message)
