import csv
import dataclasses
import gc
import io
import json
import tempfile
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saddlesim import approx, cli, problems, simulate, spectral
from saddlesim.cli import (
    ConfigError,
    ExperimentRecord,
    emit,
    load_config,
    main,
    parse_config,
    run_experiment,
)

BASE_DOC = {
    "problem": {"kind": "quadratic", "lambdas": [1.0, -1.0]},
    "eps": 0.1,
    "alpha_mode": 0.1,
    "inits": [{"label": "mostly-stable", "theta_us_sq": 0.00998}],
    "seeds": [0],
    "out_prefix": "demo",
}


RETIRED_WARNING = "warning: estimate_samples is ignored: M is taken in closed form\n"


def write_config(tmp_path, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestParseConfig:
    def test_round_trip(self):
        config = parse_config(BASE_DOC)
        assert config.eps == 0.1
        assert config.alpha_mode == 0.1
        assert config.seeds == (0,)
        assert config.inits[0]["theta_us_sq"] == 0.00998
        assert config.rho == 0.5  # default
        assert config.n_samples == 200  # default

    @pytest.mark.parametrize(
        "patch",
        [
            {"eps": -0.1},
            {"eps": "not-a-number"},
            {"alpha_mode": 0.0},
            {"alpha_mode": 1.5},
            {"seeds": []},
            {"inits": []},
            {"rho": 1.0},
            {"k_max": 0},
            {"problem": {"kind": "mystery"}},
            {"problem": {"kind": "quadratic"}},
            {"problem": {"kind": "phase_retrieval"}},
            {"eps": float("nan")},
            {"eps": float("inf")},
            {"n_samples": 0},
            {"inits": [{"label": "x"}]},
            {
                "inits": [
                    {"label": "x", "theta_us_sq": 0.1},
                    {"label": "x", "theta_us_sq": 0.2},
                ]
            },
            {"seeds": [0, 0]},
            {"kmax": 10},
            {"rho": "x"},
            {"n_samples": "x"},
            {"k_max": "x"},
            {"inits": [{"label": "x", "theta_us_sq": "x"}]},
            {"inits": [{"label": "x", "u0": 5}]},
            {"problem": {"kind": "phase_retrieval", "n": "x"}},
            {"problem": {"kind": "quadratic", "lambdas": [1.0]}},
            {"problem": {"kind": "quadratic", "lambdas": [1.0, "x"]}},
            {"seeds": [-1]},
            {"out_prefix": None},
            {"out_prefix": 5},
            {"inits": [{"label": None, "theta_us_sq": 0.1}]},
            {"inits": [{"label": ["x"], "theta_us_sq": 0.1}]},
            {"n_samples": 10**14},
            {"inits": [{"label": "x", "theta_us_sq": 0.1, "u0": [0.1, 0.0]}]},
            {"n_samples": approx.MAX_FAMILY_SAMPLES + 1},
            {"rho": 0.0},
            # a problem field the kind does not take
            {"problem": {"kind": "cubic", "n": 60}},
            {"problem": {"kind": "phase_retrieval", "n": 8, "m": 8}},
            {"problem": {"kind": "phase_retrieval", "n": 8, "lambdas": [1.0, -1.0]}},
            {"problem": {"kind": "quadratic", "lambdas": [1.0, -1.0], "lamdbas": [2.0]}},
            {"problem": {"kind": "quadratic", "lamdbas": [1.0, -1.0]}},
        ],
    )
    def test_rejects_bad_fields(self, patch):
        doc = dict(BASE_DOC)
        doc.update(patch)
        with pytest.raises(ConfigError):
            parse_config(doc)

    @pytest.mark.parametrize(
        "patch, field",
        [
            ({"eps": "x"}, "eps"),
            ({"alpha_mode": None}, "alpha_mode"),
            ({"seeds": "x"}, "seeds"),
            ({"rho": "x"}, "rho"),
            ({"n_samples": [1]}, "n_samples"),
            ({"k_max": float("nan")}, "k_max"),
            ({"inits": [{"label": "x", "theta_us_sq": None}]}, "theta_us_sq"),
            ({"inits": [{"label": "x", "u0": [0.1, "y"]}]}, "u0"),
            ({"problem": {"kind": "phase_retrieval", "n": {}}}, "problem.n"),
            ({"problem": {"kind": "quadratic", "lambdas": "x"}}, "problem.lambdas"),
            ({"inits": [{"label": "x", "theta_us_sq": 1.5}]}, "theta_us_sq"),
            ({"n_samples": 10**14}, "n_samples"),
            ({"problem": {"kind": "phase_retrieval", "n": 10**7}}, "problem.n"),
            ({"problem": {"kind": "quadratic", "lambdas": [1.0, -1.0] * 25_000}}, "problem.lambdas"),
        ],
    )
    def test_malformed_value_names_the_field(self, patch, field):
        doc = dict(BASE_DOC)
        doc.update(patch)
        with pytest.raises(ConfigError, match=field):
            parse_config(doc)

    def test_the_sample_caps_are_accepted(self):
        config = parse_config(dict(BASE_DOC, n_samples=approx.MAX_FAMILY_SAMPLES))
        assert config.n_samples == approx.MAX_FAMILY_SAMPLES

    @pytest.mark.parametrize("value", [300, 0, "x", None])
    def test_the_retired_estimate_samples_is_ignored(self, capsys, value):
        assert parse_config(dict(BASE_DOC, estimate_samples=value)) == parse_config(BASE_DOC)
        assert capsys.readouterr().err == RETIRED_WARNING

    @pytest.mark.parametrize(
        "problem",
        [
            {"kind": "phase_retrieval", "n": problems.MAX_DIM},
            {"kind": "quadratic", "lambdas": [1.0, -1.0] * (problems.MAX_DIM // 2)},
        ],
    )
    def test_the_dimension_cap_is_accepted(self, problem):
        assert parse_config(dict(BASE_DOC, problem=problem)).problem == problem

    def test_init_needs_exactly_one_start_spec(self):
        for init in (
            {"label": "x"},
            {"label": "x", "theta_us_sq": 0.1, "u0": [0.1, 0.0]},
            {"theta_us_sq": 0.1},
        ):
            doc = dict(BASE_DOC)
            doc["inits"] = [init]
            with pytest.raises(ConfigError):
                parse_config(doc)

    def test_theta_us_sq_domain(self):
        doc = dict(BASE_DOC)
        doc["inits"] = [{"label": "x", "theta_us_sq": 1.5}]
        with pytest.raises(ConfigError):
            parse_config(doc)

    def test_missing_field_names_the_field(self):
        with pytest.raises(ConfigError):
            parse_config({"eps": 0.1})
        with pytest.raises(ConfigError):
            parse_config([1, 2, 3])


class TestRunExperiment:
    def test_reference_escape(self):
        records = run_experiment(parse_config(BASE_DOC))
        assert len(records) == 1
        rec = records[0]
        assert rec.first_exit_k == 25
        assert rec.theta_us_sq == pytest.approx(0.00998, rel=1e-10)
        assert rec.norms.size == 26
        s = rec.summary
        assert s["first_exit_k"] == 25
        assert s["k_iota"] == 25  # the family floor agrees on quadratics
        assert s["exit_k_bound"] == np.inf  # big_m = 0 never forces an exit
        assert s["eps_within_validity"] is True
        assert s["constants"]["big_m"] == 0.0

    def test_records_sorted_by_seed_then_label(self):
        doc = dict(BASE_DOC)
        doc["inits"] = [
            {"label": "b", "theta_us_sq": 0.5},
            {"label": "a", "theta_us_sq": 0.2},
        ]
        doc["seeds"] = [1, 0]
        records = run_experiment(parse_config(doc))
        keys = [(r.seed, r.init_label) for r in records]
        assert keys == sorted(keys)

    def test_explicit_u0_accepted(self):
        doc = dict(BASE_DOC)
        doc["inits"] = [{"label": "point", "u0": [0.0995, 0.00999]}]
        records = run_experiment(parse_config(doc))
        assert records[0].first_exit_k == 25

    def test_projection_series_sums_to_radius(self):
        records = run_experiment(parse_config(BASE_DOC))
        rec = records[0]
        total = rec.stable_proj_sq + rec.unstable_proj_sq
        np.testing.assert_allclose(np.sqrt(total), rec.norms, rtol=1e-12)


def oracle_runs_csv(records) -> bytes:
    """_runs.csv as emit wrote it row by row through csv.writer."""
    text = io.StringIO(newline="")
    writer = csv.writer(text)
    writer.writerow(
        ["run_id", "seed", "init_label", "k", "radial_norm", "stable_proj_sq", "unstable_proj_sq", "exited"]
    )
    for r in records:
        for k in range(r.norms.size):
            exited = r.first_exit_k is not None and k >= r.first_exit_k
            writer.writerow(
                [
                    r.run_id,
                    r.seed,
                    r.init_label,
                    k,
                    repr(float(r.norms[k])),
                    repr(float(r.stable_proj_sq[k])),
                    repr(float(r.unstable_proj_sq[k])),
                    exited,
                ]
            )
    return text.getvalue().encode()


class TestEmit:
    def test_csv_has_one_row_per_step(self, tmp_path):
        records = run_experiment(parse_config(BASE_DOC))
        paths = emit(records, "csv", str(tmp_path), "demo")
        names = sorted(p.name for p in paths)
        assert names == ["demo_runs.csv", "demo_summary.json"]
        rows = (tmp_path / "demo_runs.csv").read_text().strip().splitlines()
        assert rows[0].startswith("run_id,seed,init_label,k,")
        assert len(rows) == 1 + 26
        assert rows[1].endswith("False")
        assert rows[-1].endswith("True")  # only the exit step has left the ball

    def test_summary_is_valid_json(self, tmp_path):
        records = run_experiment(parse_config(BASE_DOC))
        emit(records, "json", str(tmp_path), "demo")
        payload = json.loads((tmp_path / "demo_summary.json").read_text())
        run = payload["runs"][0]
        assert run["first_exit_k"] == 25
        assert run["exit_k_bound"] is None  # infinities map to JSON null
        assert run["crude_k_bound"] is None

    def test_byte_stable_across_reruns(self, tmp_path):
        records = run_experiment(parse_config(BASE_DOC))
        emit(records, "csv", str(tmp_path / "a"), "demo")
        emit(run_experiment(parse_config(BASE_DOC)), "csv", str(tmp_path / "b"), "demo")
        for name in ("demo_runs.csv", "demo_summary.json"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_runs_csv_matches_the_row_writer(self, tmp_path):
        # labels csv must quote; a purely stable start never exits
        inits = [{"label": label, "theta_us_sq": 0.00998} for label in ("plain", "a,b", 'say "hi"', "two\nlines")]
        inits.append({"label": "stays", "theta_us_sq": 0.0})
        doc = dict(BASE_DOC, seeds=[0, 3], k_max=40, inits=inits)
        records = run_experiment(parse_config(doc))
        assert [r.first_exit_k for r in records].count(None) == 2
        emit(records, "csv", str(tmp_path), "demo")
        assert (tmp_path / "demo_runs.csv").read_bytes() == oracle_runs_csv(records)

    @given(
        labels=st.lists(st.text(max_size=6), min_size=1, max_size=3),
        values=st.lists(st.floats(), min_size=3, max_size=12),
        first_exit_k=st.none() | st.integers(0, 5),
    )
    @settings(max_examples=100, deadline=None)
    def test_runs_csv_matches_the_row_writer_on_any_label_and_float(self, labels, values, first_exit_k):
        rows = len(values) // 3
        cols = np.array(values[: 3 * rows]).reshape(3, rows)
        records = [
            ExperimentRecord(
                run_id=f"s{seed}-{label}",
                seed=seed,
                init_label=label,
                theta_us_sq=0.5,
                norms=cols[0],
                stable_proj_sq=cols[1],
                unstable_proj_sq=cols[2],
                first_exit_k=first_exit_k,
                summary={},
            )
            for seed, label in enumerate(labels)
        ]
        with tempfile.TemporaryDirectory() as tmp:
            emit(records, "csv", tmp, "demo")
            with open(f"{tmp}/demo_runs.csv", "rb") as fh:
                assert fh.read() == oracle_runs_csv(records)

    def test_rejects_empty_and_unknown_formats(self, tmp_path):
        records = run_experiment(parse_config(BASE_DOC))
        with pytest.raises(ValueError):
            emit([], "csv", str(tmp_path))
        with pytest.raises(ValueError):
            emit(records, "xml", str(tmp_path))


class TestMain:
    def test_simulate_writes_artifacts(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE_DOC)
        out = tmp_path / "out"
        code = main(["simulate", "--config", cfg, "--out", str(out), "--format", "csv"])
        assert code == 0
        printed = capsys.readouterr().out.strip().splitlines()
        assert len(printed) == 2
        assert (out / "demo_summary.json").exists()
        assert (out / "demo_runs.csv").exists()

    def test_simulate_default_format_is_summary_only(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE_DOC)
        out = tmp_path / "out"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "demo_summary.json").exists()
        assert not (out / "demo_runs.csv").exists()

    def test_validate_prints_report(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE_DOC)
        assert main(["validate", "--config", cfg]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["is_strict_saddle"] is True
        assert report["gradient_growth_ok"] is True

    @pytest.mark.parametrize(
        "lambdas",
        [[1.0, 2.0], [-1.0, -2.0], [-1.0, -1.0]],
        ids=["minimum", "maximum", "maximum-one-group"],
    )
    def test_validate_reports_a_quadratic_that_is_not_a_strict_saddle(
        self, tmp_path, capsys, lambdas
    ):
        assert main(["validate", "--config", write_config(tmp_path, BASE_DOC)]) == 0
        full = json.loads(capsys.readouterr().out)
        doc = dict(BASE_DOC, problem={"kind": "quadratic", "lambdas": lambdas})
        cfg = write_config(tmp_path, doc)
        assert main(["validate", "--config", cfg]) == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report) == set(full)
        assert report["is_morse"] is True
        assert report["is_strict_saddle"] is False
        assert report["constants"] is None
        assert report["gradient_growth_ok"] is None
        for command in ("simulate", "bounds"):
            assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 3
            assert "numerical failure" in capsys.readouterr().err

    def test_family_reports_the_frozen_crossing(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE_DOC)
        out = tmp_path / "fam"
        assert main(["family", "--config", cfg, "--out", str(out)]) == 0
        payload = json.loads((out / "demo_family.json").read_text())
        run = payload["runs"][0]
        assert run["k_iota"] == 25
        assert run["sup_exit"] == 25.0
        rows = (out / "demo_family.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + run["n_samples"]

    def test_approx_error_is_rounding_level_on_quadratics(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE_DOC)
        assert main(["approx", "--config", cfg]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["runs"][0]["max_rel_error"] < 1e-12

    def test_approx_landing_on_the_saddle_is_quiet(self, tmp_path, capsys):
        # alpha = 1 / L sends a purely stable start to the saddle in one step:
        # later radii are zero, so the error is 0 / 0, reported null, with no warning
        doc = dict(
            BASE_DOC, alpha_mode=1.0, k_max=5,
            inits=[{"label": "stable", "theta_us_sq": 0.0}],
        )
        cfg = write_config(tmp_path, doc)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["approx", "--config", cfg]) == 0
        assert caught == []
        out, err = capsys.readouterr()
        assert err == ""
        run = json.loads(out)["runs"][0]
        assert run["max_rel_error"] is None
        assert run["steps_compared"] == 5

    def test_bounds_report(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE_DOC)
        assert main(["bounds", "--config", cfg]) == 0
        payload = json.loads(capsys.readouterr().out)
        run = payload["runs"][0]
        assert run["delta_threshold"] == 0.0
        assert run["passes_delta"] is True

    def test_validate_and_bounds_report_the_same_constants(self, tmp_path, capsys):
        doc = dict(BASE_DOC, problem={"kind": "cubic"}, eps=0.05)
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["validate", "--config", cfg, "--out", str(out)]) == 0
        assert main(["bounds", "--config", cfg, "--out", str(out)]) == 0
        validate = json.loads((out / "demo_validate.json").read_text())
        bounds = json.loads((out / "demo_bounds.json").read_text())
        assert validate["constants"] == bounds["runs"][0]["constants"]

    @pytest.mark.parametrize(
        "problem, source",
        [
            ({"kind": "quadratic", "lambdas": [1.0, -1.0]}, "exact"),
            ({"kind": "cubic"}, "exact"),
            ({"kind": "phase_retrieval", "n": 8}, "certified"),
        ],
    )
    def test_every_summary_says_where_big_m_came_from(self, tmp_path, capsys, problem, source):
        doc = dict(BASE_DOC, problem=problem, eps=1e-3, k_max=50, n_samples=5, seeds=[0, 1])
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "out"
        for command in ("simulate", "family", "bounds"):
            assert main([command, "--config", cfg, "--out", str(out)]) == 0
        for name in ("demo_summary.json", "demo_family.json", "demo_bounds.json"):
            runs = json.loads((out / name).read_text())["runs"]
            assert len(runs) == 2
            assert all(run["constants"]["big_m_source"] == source for run in runs)

    @pytest.mark.parametrize(
        "problem, eps",
        [({"kind": "cubic"}, 0.1), ({"kind": "phase_retrieval", "n": 60}, 1e-6)],
    )
    def test_validate_cross_checks_big_m(self, tmp_path, capsys, problem, eps):
        cfg = write_config(tmp_path, dict(BASE_DOC, problem=problem, eps=eps))
        assert main(["validate", "--config", cfg]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["constants"]["big_m_source"] in ("exact", "certified")
        assert report["constants"]["big_m"] > 0
        assert "sampled_big_m" not in report and "big_m_ge_sampled" not in report

    @pytest.mark.parametrize(
        "argv", [["simulate", "--format", "csv"], ["approx"], ["family"], ["bounds"], ["validate"]]
    )
    def test_a_config_with_estimate_samples_runs_with_one_warning(self, tmp_path, capsys, argv):
        doc = dict(BASE_DOC, problem={"kind": "phase_retrieval", "n": 8}, eps=1e-3, k_max=50,
                   n_samples=5)

        def run(doc, out):
            assert main([*argv, "--config", write_config(tmp_path, doc), "--out", str(out)]) == 0
            return {p.name: p.read_bytes() for p in out.iterdir()}, capsys.readouterr().err

        plain, plain_err = run(doc, tmp_path / "plain")
        retired, retired_err = run(dict(doc, estimate_samples=300), tmp_path / "retired")
        assert retired == plain
        assert plain_err == ""
        assert retired_err == RETIRED_WARNING

    def test_seed_override(self, tmp_path, capsys):
        doc = dict(BASE_DOC)
        doc["problem"] = {"kind": "phase_retrieval", "n": 6}
        doc["eps"] = 0.01
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "s"
        assert main(["simulate", "--config", cfg, "--out", str(out), "--seed", "7"]) == 0
        payload = json.loads((out / "demo_summary.json").read_text())
        assert [r["seed"] for r in payload["runs"]] == [7]

    @pytest.mark.parametrize(
        "patch, command, field",
        [
            ({"n_samples": 10**14}, "bounds", "n_samples"),
            ({"n_samples": 10**14}, "family", "n_samples"),
            # within the fixed cap, but an n = 60 family step would not fit
            ({"n_samples": approx.MAX_FAMILY_SAMPLES,
              "problem": {"kind": "phase_retrieval", "n": 60}}, "family", "n_samples"),
        ],
    )
    def test_huge_sample_counts_exit_2(self, tmp_path, capsys, patch, command, field):
        cfg = write_config(tmp_path, dict(BASE_DOC, **patch))
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and field in err

    def test_config_error_exits_2(self, tmp_path, capsys):
        doc = dict(BASE_DOC)
        doc["inits"] = [{"label": "x", "theta_us_sq": 2.0}]
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", "--config", cfg]) == 2
        assert "theta_us_sq" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "approx", "family", "bounds", "validate"])
    def test_off_sphere_u0_exits_2(self, tmp_path, capsys, command):
        for u0 in ([0.5, 0.5], [float("nan"), 0.0], [0.1, 0.0, 0.0]):
            doc = dict(BASE_DOC)
            doc["inits"] = [{"label": "x", "u0": u0}]
            cfg = write_config(tmp_path, doc)
            assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
            err = capsys.readouterr().err
            assert err.count("\n") == 1
            assert "init 'x'" in err

    @pytest.mark.parametrize("command", ["validate", "approx", "family", "bounds"])
    def test_format_is_only_for_commands_that_emit_runs(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path, BASE_DOC)
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", cfg, "--format", "csv"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "command, estimates", [("simulate", 2), ("approx", 0), ("family", 2), ("bounds", 2)]
    )
    def test_setup_runs_once_per_seed(self, tmp_path, capsys, monkeypatch, command, estimates):
        calls = {"estimate_constants": 0, "decompose": 0}

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls[fn.__name__] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(problems, "estimate_constants", counted(problems.estimate_constants))
        monkeypatch.setattr(spectral, "decompose", counted(spectral.decompose))
        doc = dict(BASE_DOC)
        doc["inits"] = [{"label": f"t{t}", "theta_us_sq": t} for t in (0.01, 0.2, 0.5)]
        doc["seeds"] = [0, 1]
        doc["n_samples"] = 20
        cfg = write_config(tmp_path, doc)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert calls == {"estimate_constants": estimates, "decompose": 2}

    @pytest.mark.parametrize(
        "command, warns", [("simulate", True), ("family", True), ("bounds", True),
                           ("approx", False), ("validate", False)]
    )
    def test_eps_above_eps_max_warns_once_per_seed(self, tmp_path, capsys, command, warns):
        doc = dict(BASE_DOC)
        doc["problem"] = {"kind": "phase_retrieval", "n": 8}
        doc["eps"] = 0.05
        doc["alpha_mode"] = 1.0
        doc["inits"] = [{"label": "a", "theta_us_sq": 0.5}, {"label": "b", "theta_us_sq": 0.2}]
        doc["seeds"] = [0, 1]
        doc["k_max"] = 50
        doc["n_samples"] = 5
        cfg = write_config(tmp_path, doc)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == (2 if warns else 0)
        for line, seed in zip(lines, doc["seeds"]):
            assert line.startswith("warning: eps = 0.05 exceeds the validity radius eps_max = ")
            assert line.endswith(f" for phase_retrieval(m=8, n=8, seed={seed})")

    @pytest.mark.parametrize(
        "problem, message",
        [
            ({"kind": "cubic", "n": 60}, "unknown problem field(s): n"),
            ({"kind": "phase_retrieval", "n": 8, "seed": 1, "m": 8},
             "unknown problem field(s): m, seed"),
            ({"kind": ["quadratic"], "lambdas": [1.0, -1.0]}, "problem.kind must be"),
            ({"kind": {}, "lambdas": [1.0, -1.0]}, "problem.kind must be"),
            ({"kind": None, "lambdas": [1.0, -1.0]}, "problem.kind must be"),
            ({"lambdas": [1.0, -1.0]}, "problem.kind must be"),
        ],
    )
    def test_bad_problem_exits_2_with_one_line(self, tmp_path, capsys, problem, message):
        cfg = write_config(tmp_path, dict(BASE_DOC, problem=problem))
        assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"error: {message}")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "problem, factory",
        [
            ({"kind": "quadratic", "lambdas": [1.0, 0.5, -0.5, -2.0]}, "quadratic_saddle"),
            ({"kind": "cubic"}, "cubic_test"),
            ({"kind": "phase_retrieval", "n": 8}, "phase_retrieval"),
        ],
    )
    def test_a_rebound_factory_builds_every_seed(self, tmp_path, capsys, monkeypatch, problem, factory):
        """A wrapper bound to problems.<factory> is called once per seed, and the
        problem it returns, with counting callables put in by dataclasses.replace,
        is the one the run uses: the artifacts match an unwrapped run byte for byte."""
        doc = dict(BASE_DOC, problem=problem, seeds=[0, 1], k_max=50,
                   inits=[{"label": "a", "theta_us_sq": 0.5}, {"label": "b", "theta_us_sq": 0.2}])
        cfg = write_config(tmp_path, doc)

        def artifacts(out):
            assert main(["simulate", "--config", cfg, "--format", "csv", "--out", str(out)]) == 0
            return {p.name: p.read_bytes() for p in out.iterdir()}

        plain = artifacts(tmp_path / "plain")
        calls = {"build": 0, "value": 0, "gradient": 0, "hessian": 0}

        def counting(fn, name):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        original = getattr(problems, factory)

        def wrapped_factory(*args, **kwargs):
            calls["build"] += 1
            built = original(*args, **kwargs)
            return dataclasses.replace(
                built, **{a: counting(getattr(built, a), a) for a in ("value", "gradient", "hessian")}
            )

        monkeypatch.setattr(problems, factory, wrapped_factory)
        assert artifacts(tmp_path / "wrapped") == plain
        assert calls["build"] == len(doc["seeds"])
        assert calls["gradient"] > 0 and calls["hessian"] > 0

    @pytest.mark.parametrize("problem", [{"kind": "cubic"}, {"kind": "phase_retrieval", "n": 8}])
    def test_seeds_past_the_memory_budget_are_built_again(self, monkeypatch, problem):
        """With room for two seeds' problems, no more than two are ever alive,
        a run sees its own, and each seed past the first two is built twice:
        checked, then built again when reached.  Memory does not grow with the
        number of seeds."""
        doc = dict(BASE_DOC, problem=problem, eps=1e-3, seeds=[0, 1, 2, 4, 5],
                   inits=[{"label": "a", "theta_us_sq": 0.5}, {"label": "b", "theta_us_sq": 0.2}])
        config = parse_config(doc)
        kind = problems.KINDS[problem["kind"]]
        monkeypatch.setattr(cli, "_KEPT_BYTES", 2 * cli._SEED_ARRAYS * 8 * kind.dim(problem) ** 2)
        built = []

        def alive():
            gc.collect()
            return [p for p in (ref() for ref in built) if p is not None]

        def build(entry, seed):
            assert len(alive()) <= 2
            made = kind.build(entry, seed)
            built.append(weakref.ref(made))
            return made

        kinds = dict(problems.KINDS, **{problem["kind"]: dataclasses.replace(kind, build=build)})
        monkeypatch.setattr(problems, "KINDS", kinds)
        seen = []
        for run in cli._runs(config):
            assert len(alive()) <= 2 and any(p is run.problem for p in alive())
            seen.append(run.run_id)
        assert seen == [f"s{s}-{e}" for s in doc["seeds"] for e in ("a", "b")]
        assert len(built) == 2 * len(doc["seeds"]) - 2

    def test_a_start_adds_no_n_by_n_array(self):
        """Sixty-four starts per seed peak less than four (n, n) float64 arrays
        above one start: a start holds length-n vectors only."""
        n = 128

        def peak(inits):
            doc = dict(BASE_DOC, problem={"kind": "phase_retrieval", "n": n}, eps=1e-6, seeds=[0, 1],
                       inits=[{"label": f"i{j}", "theta_us_sq": (j + 1) / (inits + 1)} for j in range(inits)])
            config = parse_config(doc)
            tracemalloc.start()
            try:
                list(cli._runs(config))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1)  # first-call allocations are not a start's
        assert peak(64) - peak(1) < 4 * 8 * n * n

    @pytest.mark.parametrize(
        "problem", [{"kind": "phase_retrieval", "n": 513}, {"kind": "quadratic", "lambdas": [1.0] * 512 + [-1.0]}]
    )
    def test_approx_past_its_derivative_table_cap_exits_2(self, tmp_path, capsys, monkeypatch, problem):
        def refuse(*args, **kwargs):
            raise AssertionError("a problem was built")

        monkeypatch.setattr(problems, "phase_retrieval", refuse)
        monkeypatch.setattr(problems, "quadratic_saddle", refuse)
        out = tmp_path / "out"
        cfg = write_config(tmp_path, dict(BASE_DOC, problem=problem))
        assert main(["approx", "--config", cfg, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: approx needs dimension at most 512 (its H' table takes 8 n^3 bytes), got n = 513\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["simulate", "--format", "csv"], ["approx"]])
    def test_a_record_past_its_memory_budget_exits_2(self, tmp_path, capsys, monkeypatch, argv):
        # 1,000 rows of two floats; a purely stable start never exits
        monkeypatch.setattr(simulate, "_RECORD_BYTES", 1000 * 2 * 8)
        doc = dict(BASE_DOC, k_max=5000, inits=[{"label": "stable", "theta_us_sq": 0.0}])
        out = tmp_path / "out"
        assert main([*argv, "--config", write_config(tmp_path, doc), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "set k_max to at most 999" in captured.err
        assert len(captured.err.strip().splitlines()) == 1
        assert not out.exists()

    def test_negative_seed_override_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, BASE_DOC)
        assert main(["simulate", "--config", cfg, "--seed", "-1"]) == 2
        assert "--seed" in capsys.readouterr().err

    def test_binary_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_bytes(b"\xff\xfe\x00")
        assert main(["simulate", "--config", str(path)]) == 2
        assert capsys.readouterr().err.count("\n") == 1

    def test_missing_config_exits_2(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.json")
        assert main(["simulate", "--config", missing]) == 2

    def test_numerical_failure_exits_3(self, tmp_path, capsys):
        doc = dict(BASE_DOC)
        doc["problem"] = {"kind": "quadratic", "lambdas": [1.0, 2.0]}
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", "--config", cfg]) == 3
        assert capsys.readouterr().err != ""

    @pytest.mark.parametrize(
        "patch, command, message",
        [
            ({"problem": {"kind": "quadratic", "lambdas": [1.0, 0.0, -1.0]}}, "bounds", "not Morse"),
            ({"problem": {"kind": "phase_retrieval", "n": 8}, "seeds": [3]}, "bounds",
             "not a nondegenerate strict saddle"),
            ({"inits": [{"label": "x", "theta_us_sq": 0.0}], "k_max": 3, "n_samples": 5},
             "family", "no sample exited"),
        ],
        ids=["NotMorse", "NotStrictSaddleAtZero", "NoExitInFamily"],
    )
    def test_numerical_failures_exit_3_with_one_line(self, tmp_path, capsys, patch, command, message):
        cfg = write_config(tmp_path, dict(BASE_DOC, **patch))
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("numerical failure: ") and message in err

    @pytest.mark.parametrize("command", ["simulate", "family", "bounds"])
    def test_a_later_seed_that_is_not_a_saddle_fails_first(self, tmp_path, capsys, command):
        # seed 0 alone would warn that eps exceeds eps_max; seed 3 is not a
        # strict saddle, and fails before seed 0's constants are estimated
        doc = dict(BASE_DOC, problem={"kind": "phase_retrieval", "n": 8}, eps=0.05,
                   seeds=[0, 3], k_max=50, n_samples=5)
        cfg = write_config(tmp_path, doc)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("numerical failure: ") and "seed=3" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "flag, value, field",
        # checked before the seed list or any array is built
        [("--num-seeds", 10**10, "--num-seeds"), ("--n", 10**7, "problem.n")],
    )
    def test_phase_retrieval_caps_exit_2(self, capsys, flag, value, field):
        assert main(["phase-retrieval", flag, str(value)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and field in err

    def test_phase_retrieval_shortcut(self, tmp_path, capsys):
        out = tmp_path / "pr"
        code = main(
            [
                "phase-retrieval",
                "--n", "6",
                "--num-seeds", "2",
                "--eps", "0.001",
                "--theta-us-sq", "0.5",
                "--out", str(out),
            ]
        )
        assert code == 0
        files = sorted(p.name for p in out.iterdir())
        assert any(name.endswith("_summary.json") for name in files)
        payload = json.loads(
            (out / [n for n in files if n.endswith("_summary.json")][0]).read_text()
        )
        assert len(payload["runs"]) == 2
        for run in payload["runs"]:
            assert run["first_exit_k"] is not None


def test_load_config_round_trip(tmp_path):
    cfg = write_config(tmp_path, BASE_DOC)
    config = load_config(cfg)
    assert config.out_prefix == "demo"
    assert config.problem["kind"] == "quadratic"


MALFORMED = ["x", None, [1, 2], {"a": {"b": 1}}, float("nan")]


@st.composite
def configs_with_one_bad_field(draw):
    """A config from small bounded ranges, then one field (or none) made malformed."""
    kind = draw(st.sampled_from(["quadratic", "cubic", "phase_retrieval"]))
    if kind == "quadratic":
        problem = {"kind": kind, "lambdas": draw(st.lists(st.floats(-2, 2), min_size=2, max_size=4))}
        dim = len(problem["lambdas"])
    elif kind == "cubic":
        problem, dim = {"kind": kind}, 2
    else:
        dim = draw(st.integers(2, 6))
        problem = {"kind": kind, "n": dim}
    eps = draw(st.floats(1e-3, 0.2))
    inits = []
    for i in range(draw(st.integers(1, 2))):
        if draw(st.booleans()):
            inits.append({"label": f"i{i}", "theta_us_sq": draw(st.floats(0, 1))})
        else:
            d = np.array(draw(st.lists(st.floats(-1, 1), min_size=dim, max_size=dim)))
            norm = np.linalg.norm(d)
            inits.append({"label": f"i{i}", "u0": (eps * d / norm if norm else d).tolist()})
    doc = {
        "problem": problem,
        "eps": eps,
        "alpha_mode": draw(st.floats(0.1, 1.0)),
        "inits": inits,
        "seeds": draw(st.lists(st.integers(0, 3), min_size=1, max_size=2, unique=True)),
        "k_max": draw(st.integers(1, 200)),
        "rho": draw(st.floats(0.01, 0.99)),
        "n_samples": draw(st.integers(1, 5)),
        "out_prefix": "prop",
    }
    paths = [(k,) for k in doc] + [("problem", k) for k in problem]
    paths += [("inits", i, k) for i, entry in enumerate(inits) for k in entry]
    path = draw(st.sampled_from([None, *paths]))
    if path is not None:
        # A null k_max is valid: it selects default_k_max, which grows as 1/beta
        # (millions of steps on some instances), far past the k_max bound here.
        bad = draw(st.sampled_from([v for v in MALFORMED if v is not None or path != ("k_max",)]))
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = bad
    return doc


@given(
    doc=configs_with_one_bad_field(),
    argv=st.sampled_from(
        [["validate"], ["simulate"], ["simulate", "--format", "csv"], ["approx"], ["family"], ["bounds"]]
    ),
)
@settings(max_examples=100, deadline=None)
def test_main_never_raises(doc, argv):
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/config.json"
        with open(path, "w") as fh:
            json.dump(doc, fh)
        assert main([*argv, "--config", path, "--out", f"{tmp}/out"]) in (0, 2, 3)
