import contextlib
import copy
import io
import json
import shutil
import subprocess
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import stagedwell as sw
from stagedwell.cli import build_parser, main

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
DATA = Path(__file__).parent / "data"

GEOMETRIC = json.dumps({
    "states": ["out", "in"],
    "matrices": {"G": [[0.0, 0.0], [0.5, 0.5]]},
    "schedule": {"kind": "constant", "matrix": "G"},
    "initial": [1.0, 0.0],
    "target_set": ["in"],
})

RANDOM_ENV = json.dumps({
    "states": ["out", "in"],
    "matrices": {"G": [[0.0, 0.0], [0.5, 0.5]], "H": [[0.0, 0.0], [0.25, 0.25]]},
    "schedule": {"kind": "random", "probabilities": {"G": 0.5, "H": 0.5}, "length": 200},
    "initial": [1.0, 0.0],
    "target_set": ["in"],
})


@pytest.fixture
def geometric_path(tmp_path):
    path = tmp_path / "geometric.json"
    path.write_text(GEOMETRIC)
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParserReuse:
    """main builds its parser once per process; later calls behave as fresh ones."""

    def test_repeated_calls_match_fresh_ones(self, capsys, geometric_path):
        calls = [["moments", "--scenario", geometric_path, "--order", "3"],
                 ["occupancy", "--scenario", "builtin:fulmar", "--format", "json"],
                 ["lifetime", "--scenario", geometric_path + ".missing"]]

        def fresh(argv):
            build_parser.cache_clear()
            return run(capsys, argv)

        expected = [fresh(argv) for argv in calls]
        assert [code for code, *_ in expected] == [0, 0, 1]
        assert [run(capsys, argv) for argv in calls] == expected
        assert build_parser() is build_parser()
        with pytest.raises(SystemExit) as info:
            main(["moments", "--scenario", geometric_path, "--order", "0"])
        assert info.value.code == 2
        assert "--order" in capsys.readouterr().err
        assert [run(capsys, argv) for argv in calls] == expected
        assert [fresh(argv) for argv in calls] == expected


class TestValidate:
    def test_builtin(self, capsys):
        code, out, err = run(capsys, ["validate", "--scenario", "builtin:fulmar"])
        assert code == 0
        assert out.startswith("scenario OK: 4 stages, 3 matrices")
        assert "U_f: column sums" in out
        assert "pre-breeder" in out
        assert err == ""

    def test_file(self, capsys, geometric_path):
        code, out, _ = run(capsys, ["validate", "--scenario", geometric_path])
        assert code == 0
        assert "G: column sums [0.5, 0.5]; absorption [0.5, 0.5]" in out

    def test_absorption_is_the_engines_clamped_vector(self, capsys, tmp_path):
        # a column summing to 1 + 5e-10 passes the column-sum tolerance; its
        # absorption is 0, as the engines use it, not 1 - sum < 0
        doc = json.loads(GEOMETRIC)
        doc["matrices"] = {"G": [[0.5, 0.0], [0.5000000005, 0.5]]}
        path = tmp_path / "rounded.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, ["validate", "--scenario", str(path)])
        assert code == 0
        assert "G: column sums [1.0000000005, 0.5]; absorption [0.0, 0.5]" in out

    @pytest.mark.parametrize("source, kind", [
        ("builtin:fulmar", "constant"), ("two_state_geometric.json", "constant"),
        ("fulmar_explicit_sequence.json", "explicit"), ("fulmar_random_environment.json", "random")])
    def test_names_the_schedule_kind_as_the_file_does(self, capsys, source, kind):
        path = source if source == "builtin:fulmar" else str(SCENARIOS / source)
        code, out, _ = run(capsys, ["validate", "--scenario", path])
        assert code == 0
        assert out.splitlines()[0].endswith(f"matrices, schedule kind {kind}")

    def test_missing_file(self, capsys):
        code, out, err = run(capsys, ["validate", "--scenario", "/nope/missing.json"])
        assert code == 1
        assert out == ""
        assert err.startswith("error:")

    def test_error_quoting_a_line_break_is_one_line(self, capsys, tmp_path):
        doc = json.loads(GEOMETRIC)
        doc["matrices"] = {"G\nH": [[0.5]]}
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, ["validate", "--scenario", str(path)])
        assert code == 1
        assert err == ("error: ScenarioParseError: matrices.G\\nH: expected shape (2, 2) "
                       "to match states, got (1, 1)\n")


class TestUsageErrors:
    def test_missing_scenario_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["occupancy"])
        assert info.value.code == 2

    def test_bad_tail_tol(self, capsys, geometric_path):
        with pytest.raises(SystemExit) as info:
            main(["occupancy", "--scenario", geometric_path, "--tail-tol", "2.0"])
        assert info.value.code == 2

    @pytest.mark.parametrize("argv, message", [
        (["occupancy", "--start", "-1"], "must be nonnegative, got -1"),
        (["occupancy", "--max-horizon", "0"], "must be positive, got 0"),
        (["occupancy", "--tail-tol", "1"], "must lie in (0, 1), got 1.0"),
        (["env-sweep", "--grid-step", "0"], "must lie in (0, 1], got 0.0"),
        (["simulate", "--samples", "0"], "must be positive, got 0"),
        (["occupancy", "--start", "x"], "invalid int value: 'x'"),
        (["env-sweep", "--samples", "1"], "must be at least 2, got 1"),
    ], ids=["start", "max_horizon", "tail_tol", "grid_step", "samples", "not_a_number", "sweep_samples"])
    def test_range_messages(self, capsys, geometric_path, argv, message):
        with pytest.raises(SystemExit) as info:
            main(argv + ["--scenario", geometric_path])
        assert info.value.code == 2
        assert message in capsys.readouterr().err

    def test_validate_takes_no_format(self, capsys, geometric_path):
        # validate writes one text report; --format is not among its flags
        with pytest.raises(SystemExit) as info:
            main(["validate", "--scenario", geometric_path, "--format", "json"])
        assert info.value.code == 2
        assert "unrecognized arguments: --format json" in capsys.readouterr().err

    def test_unknown_target_label(self, capsys, geometric_path):
        code, _, err = run(capsys, ["occupancy", "--scenario", geometric_path,
                                    "--target", "bogus"])
        assert code == 1
        assert "bogus" in err


class TestLifetime:
    def test_csv_matches_library(self, capsys, geometric_path):
        code, out, _ = run(capsys, ["lifetime", "--scenario", geometric_path])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,probability"
        assert lines[-1].startswith("tail_mass,")
        dist = sw.lifetime_distribution(sw.Schedule.constant([[0.0, 0.0], [0.5, 0.5]]),
                                        [1.0, 0.0])
        got = {int(n): float(p) for n, p in
               (line.split(",") for line in lines[1:-1])}
        assert set(got) == set(dist.probs)
        for n, p in got.items():
            # CSV carries 12 significant digits
            assert p == pytest.approx(dist.probs[n], rel=1e-11)


class TestOccupancy:
    def test_empty_target_override(self, capsys, geometric_path):
        code, out, _ = run(capsys, ["occupancy", "--scenario", geometric_path,
                                    "--target", ""])
        assert code == 0
        lines = out.splitlines()
        # all mass lands at zero occupancy, up to the truncated tail
        assert lines[0] == "a,probability"
        assert len(lines) == 3
        atom, tail = lines[1].split(","), lines[2].split(",")
        assert atom[0] == "0" and float(atom[1]) == pytest.approx(1.0, abs=1e-11)
        assert tail[0] == "tail_mass" and float(tail[1]) < 1e-11

    def test_builtin_matches_library(self, capsys):
        code, out, _ = run(capsys, ["occupancy", "--scenario", "builtin:fulmar"])
        assert code == 0
        config = sw.builtin_fulmar_scenario()
        dist = sw.occupancy_distribution(config.build_schedule(), config.initial,
                                         config.target_set())
        lines = out.splitlines()
        got = {int(a): float(p) for a, p in
               (line.split(",") for line in lines[1:-1])}
        assert set(got) == set(dist.probs)
        for a, p in got.items():
            assert p == pytest.approx(dist.probs[a], rel=1e-11)

    def test_out_writes_file(self, capsys, geometric_path, tmp_path):
        dest = tmp_path / "occ.csv"
        code, out, _ = run(capsys, ["occupancy", "--scenario", geometric_path,
                                    "--out", str(dest)])
        assert code == 0
        assert out == ""
        assert dest.read_text().startswith("a,probability\n")

    def test_json_format(self, capsys, geometric_path):
        code, out, _ = run(capsys, ["occupancy", "--scenario", geometric_path,
                                    "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "occupancy"
        assert doc["probs"]["0"] == 0.5

    def test_random_scenario_notes_realization(self, capsys, tmp_path):
        path = tmp_path / "random.json"
        path.write_text(RANDOM_ENV)
        code, out, err = run(capsys, ["occupancy", "--scenario", str(path)])
        assert code == 0
        assert "one sampled realization" in err
        assert out.startswith("a,probability\n")

    def test_realization_note_gives_its_length(self, capsys, tmp_path):
        doc = json.loads((SCENARIOS / "fulmar_random_environment.json").read_text())
        doc["schedule"]["length"] = 10
        path = tmp_path / "short.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, ["moments", "--scenario", str(path), "--seed", "1"])
        assert code == 0
        assert err == ("note: random schedule, analyzing one sampled realization of 10 steps (seed 1); "
                       "a life that outlives it holds the last drawn condition\n")

    @pytest.mark.parametrize("argv", [["lifetime"], ["occupancy", "--format", "json"],
                                      ["moments", "--order", "3"], ["simulate", "--samples", "100"]],
                             ids=["lifetime", "occupancy", "moments", "simulate"])
    def test_a_length_past_what_any_step_reads_is_realized_only_that_far(self, capsys, tmp_path, argv):
        # a realization is cut at start + max_horizon + 1 = 100001 steps, so
        # a length beyond float64, or one whose draws would not fit in
        # memory, gives the output of that length, the note included
        doc = json.loads((SCENARIOS / "fulmar_random_environment.json").read_text())
        outcomes = []
        for length in (10**400, 10**12, 100_001):
            doc["schedule"]["length"] = length
            path = tmp_path / "long.json"
            path.write_text(json.dumps(doc))
            outcomes.append(run(capsys, argv + ["--scenario", str(path), "--seed", "2"]))
        code, _, err = outcomes[-1]
        assert code == 0
        assert "one sampled realization of 100001 steps" in err
        assert outcomes[0] == outcomes[1] == outcomes[2]


class TestMoments:
    def test_order_three_with_summary(self, capsys, geometric_path):
        code, out, _ = run(capsys, ["moments", "--scenario", geometric_path,
                                    "--order", "3"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "k,moment"
        rows = dict(line.split(",") for line in lines[1:])
        assert set(rows) == {"1", "2", "3", "mean", "variance", "cv"}
        assert float(rows["1"]) == pytest.approx(1.0, abs=1e-9)
        assert float(rows["2"]) == pytest.approx(3.0, abs=1e-9)
        assert float(rows["variance"]) == pytest.approx(2.0, abs=1e-9)

    def test_order_one_no_summary(self, capsys, geometric_path):
        code, out, _ = run(capsys, ["moments", "--scenario", geometric_path,
                                    "--order", "1"])
        assert code == 0
        assert out.splitlines() == ["k,moment",
                                    out.splitlines()[1]]  # single moment row

    @pytest.mark.parametrize("order", ["200", "1100"])
    def test_overflowing_order_is_one_error_line(self, capsys, order):
        code, out, err = run(capsys, ["moments", "--scenario", "builtin:fulmar", "--order", order])
        assert code == 1
        assert out == ""
        assert err.splitlines() == [
            f"error: ValueError: {'occupancy moments up to' if order == '200' else 'binomial weights of'}"
            f" order {order} overflow float64"
        ]


class TestSimulate:
    def test_deterministic_and_annotated(self, capsys, geometric_path):
        argv = ["simulate", "--scenario", geometric_path,
                "--samples", "500", "--seed", "7"]
        code1, out1, _ = run(capsys, argv)
        code2, out2, _ = run(capsys, argv)
        assert code1 == code2 == 0
        assert out1 == out2
        rows = dict(line.split(",") for line in out1.splitlines()[1:])
        assert "tv_distance" in rows and "analytic_mean" in rows
        assert float(rows["tv_distance"]) < 0.2
        assert float(rows["analytic_mean"]) == pytest.approx(1.0, abs=1e-9)

    def test_seed_changes_output(self, capsys, geometric_path):
        base = ["simulate", "--scenario", geometric_path, "--samples", "500"]
        _, out1, _ = run(capsys, base + ["--seed", "1"])
        _, out2, _ = run(capsys, base + ["--seed", "2"])
        assert out1 != out2

    def test_never_absorbing_stops_at_max_horizon(self, capsys, tmp_path):
        path = tmp_path / "immortal.json"
        path.write_text(json.dumps({
            "states": ["out", "in"],
            "matrices": {"I": [[1.0, 0.0], [0.0, 1.0]]},
            "schedule": {"kind": "constant", "matrix": "I"},
            "initial": [1.0, 0.0],
            "target_set": ["in"],
            "max_horizon": 50,
        }))
        code, out, err = run(capsys, ["simulate", "--scenario", str(path)])
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: NonAbsorbingError")


class TestChecksOnce:
    """One CLI call checks each matrix of its scenario once and builds one
    ScenarioConfig, overrides and all: the schedules and the random spec
    built from the config take its checked matrices as they are."""

    EXPLICIT = str(SCENARIOS / "fulmar_explicit_sequence.json")
    RANDOM = str(SCENARIOS / "fulmar_random_environment.json")

    @pytest.mark.parametrize("argv", [
        ["moments", "--start", "3", "--scenario", EXPLICIT],
        ["lifetime", "--seed", "1", "--scenario", RANDOM],
        ["occupancy", "--target", "non-breeder", "--scenario", EXPLICIT],
        ["lifetime", "--start", "2", "--scenario", "builtin:fulmar"],
    ], ids=["moments-start", "random-lifetime", "occupancy-target", "builtin-start"])
    def test_each_matrix_once_and_one_config(self, capsys, monkeypatch, argv):
        checked, built = [], []
        validate, post_init = sw.chain.validate_matrix, sw.ScenarioConfig.__post_init__
        for module in (sw.chain, sw.scenario, sw.randomenv):
            if hasattr(module, "validate_matrix"):
                monkeypatch.setattr(module, "validate_matrix", lambda raw: checked.append(raw) or validate(raw))
        monkeypatch.setattr(sw.ScenarioConfig, "__post_init__",
                            lambda self, *args: built.append(self) or post_init(self, *args))
        code, _, err = run(capsys, argv)
        assert code == 0, err
        assert (len(checked), len(built)) == (3, 1)


class TestOverrides:
    """--start, --tail-tol and --max-horizon reach every engine a subcommand runs."""

    PATH = str(SCENARIOS / "fulmar_explicit_sequence.json")
    FLAGS = ["--start", "3", "--tail-tol", "1e-10", "--max-horizon", "5000", "--format", "json"]
    KW = dict(start=3, tail_tol=1e-10, max_horizon=5000)

    def library(self):
        config = sw.load_scenario(self.PATH)
        return config.build_schedule(), config.initial, config.target_set()

    def exported(self, result, metadata=()):
        text = io.StringIO()
        sw.export_results(result, "json", text, metadata=metadata)
        return text.getvalue()

    @pytest.mark.parametrize("command", ["lifetime", "occupancy", "moments"])
    def test_exact_engines(self, capsys, command):
        schedule, v, target = self.library()
        if command == "lifetime":
            expected = self.exported(sw.lifetime_distribution(schedule, v, **self.KW))
        elif command == "occupancy":
            expected = self.exported(sw.occupancy_distribution(schedule, v, target, **self.KW))
        else:
            moments = sw.occupancy_moments(schedule, v, target, order=3, **self.KW)
            stats = sw.summary_stats(moments[0], moments[1])
            expected = self.exported(moments, [("mean", stats.mean), ("variance", stats.variance),
                                               ("cv", stats.cv)])
        order = ["--order", "3"] if command == "moments" else []
        code, out, err = run(capsys, [command, "--scenario", self.PATH, *self.FLAGS, *order])
        assert (code, err) == (0, "")
        assert out == expected
        # the overrides change the answer, so the comparison shows they arrived
        assert run(capsys, [command, "--scenario", self.PATH, "--format", "json", *order])[1] != out

    def test_simulate(self, capsys):
        schedule, v, target = self.library()
        code, out, err = run(capsys, ["simulate", "--scenario", self.PATH, *self.FLAGS,
                                      "--samples", "300", "--seed", "5"])
        assert (code, err) == (0, "")
        doc = json.loads(out)
        analytic = sw.occupancy_distribution(schedule, v, target, **self.KW)
        assert doc["metadata"]["analytic_mean"] == analytic.mean()
        summary = sw.empirical_distribution(schedule, v, target, n_samples=300, seed=5, start=3,
                                            step_cap=5000)
        del doc["metadata"]
        assert doc == json.loads(self.exported(summary))


class TestEnvSweep:
    def test_corners_only(self, capsys, tmp_path):
        path = tmp_path / "random.json"
        path.write_text(json.dumps({
            "states": ["out", "in"],
            "matrices": {
                "A": [[0.0, 0.0], [0.5, 0.5]],
                "B": [[0.0, 0.0], [0.4, 0.4]],
                "C": [[0.0, 0.0], [0.3, 0.3]],
            },
            "schedule": {"kind": "random",
                         "probabilities": {"A": 0.4, "B": 0.3, "C": 0.3},
                         "length": 200},
            "initial": [1.0, 0.0],
            "target_set": ["in"],
        }))
        code, out, err = run(capsys, ["env-sweep", "--scenario", str(path),
                                      "--grid-step", "1.0", "--samples", "10"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "p_A,p_B,p_C,mean,cv,within_var,between_var"
        assert len(lines) == 4
        assert lines[1].startswith("1.0,0.0,0.0,")
        assert lines[3].startswith("0.0,0.0,1.0,")
        assert "warning" not in err

    def test_reports_a_failing_grid_point(self, capsys, tmp_path):
        # the identity never absorbs, so the corner that always draws it
        # fails, and the sweep goes on
        path = tmp_path / "stuck.json"
        path.write_text(json.dumps({
            "states": ["out", "in"],
            "matrices": {
                "A": [[0.0, 0.0], [0.5, 0.5]],
                "B": [[0.0, 0.0], [0.4, 0.4]],
                "C": [[1.0, 0.0], [0.0, 1.0]],
            },
            "schedule": {"kind": "random", "probabilities": {"A": 0.4, "B": 0.3, "C": 0.3}},
            "initial": [1.0, 0.0],
            "target_set": ["in"],
            "max_horizon": 100,
        }))
        code, out, err = run(capsys, ["env-sweep", "--scenario", str(path),
                                      "--grid-step", "1.0", "--samples", "3"])
        assert code == 0, err
        assert err.splitlines() == [
            "warning: grid point [0.0, 0.0, 1.0] failed: NonAbsorbingError: "
            + str(sw.NonAbsorbingError(1.0, 100, context="sequence 0"))]
        lines = out.splitlines()
        assert len(lines) == 4
        assert lines[3] == "0.0,0.0,1.0,nan,nan,nan,nan"

    def test_honours_scenario_sequence_length(self, capsys, tmp_path):
        path = tmp_path / "short.json"
        path.write_text(json.dumps({
            "states": ["out", "in"],
            "matrices": {
                "A": [[0.2, 0.0], [0.6, 0.9]],
                "B": [[0.1, 0.0], [0.4, 0.5]],
                "C": [[0.0, 0.0], [0.3, 0.2]],
            },
            "schedule": {"kind": "random",
                         "probabilities": {"A": 0.4, "B": 0.3, "C": 0.3},
                         "length": 1},
            "initial": [1.0, 0.0],
            "target_set": ["in"],
        }))
        out_path = tmp_path / "cli.csv"
        code, _, err = run(capsys, ["env-sweep", "--scenario", str(path), "--grid-step", "0.5",
                                    "--samples", "6", "--seed", "3", "--out", str(out_path)])
        assert code == 0, err
        config = sw.load_scenario(path)
        exports = {}
        for length in (1, None):
            points = sw.simplex_sweep(config.conditions(), 0.5, config.initial,
                                      config.target_set(), n_sequences=6, seed=3,
                                      sample_length=length)
            exports[length] = tmp_path / f"lib_{length}.csv"
            sw.export_results(points, "csv", exports[length])
        assert out_path.read_text() == exports[1].read_text()
        # one-step sequences hold their first condition, which shows in the table
        assert out_path.read_text() != exports[None].read_text()
        # and is reported, once per grid point
        assert err.splitlines() == [
            f"warning: grid point {p}: 6 of 6 sequences outlived the drawn length 1 "
            "and held their last condition"
            for p in ("[1.0, 0.0, 0.0]", "[0.5, 0.5, 0.0]", "[0.5, 0.0, 0.5]",
                      "[0.0, 1.0, 0.0]", "[0.0, 0.5, 0.5]", "[0.0, 0.0, 1.0]")
        ]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_columns_named_after_the_matrices(self, capsys, tmp_path, fmt):
        doc = json.loads((SCENARIOS / "fulmar_random_environment.json").read_text())
        names = {"U_f": "A", "U_o": "B", "U_u": "C"}
        doc["matrices"] = {names[k]: m for k, m in doc["matrices"].items()}
        doc["schedule"]["probabilities"] = {
            names[k]: p for k, p in doc["schedule"]["probabilities"].items()}
        path = tmp_path / "renamed.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, ["env-sweep", "--scenario", str(path), "--grid-step", "1.0",
                                      "--samples", "4", "--format", fmt])
        assert code == 0, err
        if fmt == "csv":
            assert out.splitlines()[0] == "p_A,p_B,p_C,mean,cv,within_var,between_var"
        else:
            grid = json.loads(out)["grid"]
            assert [list(pt)[:3] for pt in grid] == [["p_A", "p_B", "p_C"]] * 3
            assert grid[0]["p_A"] == 1.0

    def test_random_scenario_sweeps_the_conditions_its_probabilities_name(self, capsys, tmp_path):
        # a matrix the probabilities do not name is no condition, and the
        # columns follow the probabilities' order, not the file's
        doc = json.loads((SCENARIOS / "fulmar_random_environment.json").read_text())
        spare = [[0.5 if i == j else 0.0 for j in range(4)] for i in range(4)]
        doc["matrices"] = {"spare": spare, **doc["matrices"]}
        doc["schedule"]["probabilities"] = {"U_u": 0.33, "U_f": 0.33, "U_o": 0.34}
        path = tmp_path / "spare.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, ["env-sweep", "--scenario", str(path), "--grid-step", "0.5",
                                      "--samples", "4"])
        assert (code, err) == (0, "")
        assert out.splitlines()[0] == "p_U_u,p_U_f,p_U_o,mean,cv,within_var,between_var"
        config = sw.load_scenario(path)
        pairs = [(name, config.matrices[name]) for name in ("U_u", "U_f", "U_o")]
        points = sw.simplex_sweep(pairs, 0.5, config.initial, config.target_set(), n_sequences=4,
                                  sample_length=5000)
        expected = io.StringIO()
        sw.export_results(points, "csv", expected)
        assert out == expected.getvalue()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_shipped_sweep_is_pinned(self, capsys, fmt):
        # the sampler's seeding contract and its results, bit for bit
        code, out, err = run(capsys, ["env-sweep", "--scenario", str(SCENARIOS / "fulmar_random_environment.json"),
                                      "--grid-step", "0.5", "--samples", "20", "--seed", "1", "--format", fmt])
        assert (code, err) == (0, "")
        assert out == (DATA / f"env_sweep.{fmt}").read_text()

    def test_needs_three_matrices(self, capsys, geometric_path):
        code, _, err = run(capsys, ["env-sweep", "--scenario", geometric_path,
                                    "--grid-step", "1.0", "--samples", "5"])
        assert code == 1
        assert err.startswith("error:")


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("argv, fields", [
    (["moments", "--scenario", "builtin:fulmar"], lambda doc: [doc["metadata"]["cv"]]),
    (["env-sweep", "--scenario", str(SCENARIOS / "fulmar_random_environment.json"),
      "--grid-step", "1", "--samples", "2"], lambda doc: [pt["cv"] for pt in doc["grid"]]),
    (["simulate", "--scenario", "builtin:fulmar", "--samples", "10"],
     lambda doc: [doc["metadata"]["mean_error_std_errors"]]),
], ids=["moments", "env_sweep", "simulate"])
def test_json_writes_null_for_undefined_values(capsys, argv, fields):
    # an empty target gives a zero mean: its CV and standard error are undefined
    code, out, err = run(capsys, argv + ["--target", "", "--format", "json"])
    assert code == 0, err
    values = fields(json.loads(out, parse_constant=_reject_constant))
    assert values and all(x is None for x in values)


@pytest.mark.parametrize("argv", [
    ["lifetime"], ["occupancy"], ["moments"], ["simulate", "--samples", "20"],
    ["env-sweep", "--grid-step", "0.5", "--samples", "2"],
], ids=lambda argv: argv[0])
def test_unwritable_out_is_one_error_line(capsys, tmp_path, argv):
    # main writes every subcommand's result, so a failed write reports alike
    out_path = tmp_path / "missing" / "result.csv"
    code, out, err = run(capsys, argv + ["--scenario", str(SCENARIOS / "fulmar_random_environment.json"),
                                         "--out", str(out_path)])
    assert (code, out) == (1, "")
    errors = [line for line in err.splitlines() if line.startswith("error: ")]
    assert len(errors) == 1 and errors[0].startswith("error: FileNotFoundError: ")
    assert not out_path.parent.exists()


def test_a_horizon_past_float_range_is_one_error_line(capsys, tmp_path):
    # a stage that never dies, at a --max-horizon whose step count a
    # float cannot hold
    path = tmp_path / "immortal.json"
    path.write_text(json.dumps({
        "states": ["mortal", "immortal"],
        "matrices": {"M": [[0.5, 0.0], [0.3, 1.0]]},
        "schedule": {"kind": "constant", "matrix": "M"},
        "initial": [1.0, 0.0],
        "target_set": ["mortal"],
    }))
    for argv in (["lifetime"], ["moments", "--order", "2"]):
        began = time.perf_counter()
        code, out, err = run(capsys, [*argv, "--scenario", str(path), "--max-horizon", str(10**400)])
        assert time.perf_counter() - began < 1.0
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: NonAbsorbingError: ")
        assert "Traceback" not in err


@pytest.mark.parametrize("command", ["lifetime", "occupancy", "moments", "simulate"])
def test_unallocatable_realization_is_one_error_line(capsys, tmp_path, command):
    # without a length the realization draws max_horizon indices up front;
    # 10**15 of them (7.11 PiB) is more than a process can address, so the
    # allocation fails at once without touching memory
    doc = json.loads((SCENARIOS / "fulmar_random_environment.json").read_text())
    del doc["schedule"]["length"]
    path = tmp_path / "unbounded.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, [command, "--scenario", str(path), "--max-horizon", str(10**15)])
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and "MemoryError" in err


# Scenario documents the fuzz test mutates: the two above and the shipped
# files, which between them use every schedule kind.
FUZZ_BASES = [json.loads(GEOMETRIC), json.loads(RANDOM_ENV)] + [
    json.loads(path.read_text()) for path in sorted(SCENARIOS.glob("*.json"))
]
# integers beyond float64 are a branch of their own: as two more entries of
# the list above, they reached a weight, tail_tol, initial or matrix entry in
# 1 of 13 seeded runs
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 300) | st.floats(-2.0, 2.0)
    | st.sampled_from([1e308, -1e308, 1e-320, float("nan"), float("inf")])
    | st.sampled_from([10**400, -10**400]) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def scenario_texts(draw):
    """A shipped or test scenario with up to three values replaced or
    deleted at random depth; now and then not a scenario at all."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.text(max_size=20) | JSON_VALUES.map(json.dumps))
    doc = copy.deepcopy(draw(st.sampled_from(FUZZ_BASES)))
    for _ in range(draw(st.integers(0, 3))):
        node = doc
        while True:
            key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
            child = node[key]
            if not (isinstance(child, (dict, list)) and child and draw(st.booleans())):
                break
            node = child
        if len(node) > 1 and draw(st.integers(0, 3)) == 0:
            del node[key]
        else:
            node[key] = draw(JSON_VALUES)
    return json.dumps(doc)


@settings(max_examples=400, deadline=None)
@given(scenario_texts(),
       st.sampled_from(["validate", "lifetime", "occupancy", "moments", "simulate", "env-sweep"]),
       st.integers(1, 300), st.sampled_from(["csv", "json"]))
def test_fuzzed_scenarios_exit_cleanly(tmp_path_factory, text, command, order, fmt):
    path = tmp_path_factory.mktemp("fuzz") / "scenario.json"
    path.write_text(text)
    argv = [command, "--scenario", str(path), "--max-horizon", "200"]
    if command != "validate":
        argv += ["--format", fmt]
    argv += {"moments": ["--order", str(order)], "simulate": ["--samples", "20"],
             "env-sweep": ["--grid-step", "0.5", "--samples", "2"]}.get(command, [])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2)
    if code == 1:
        lines = err.getvalue().split("\n")
        assert sum(line.startswith("error: ") for line in lines) == 1


def test_console_script_installed(geometric_path):
    exe = shutil.which("stagedwell")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run([exe, "validate", "--scenario", "builtin:fulmar"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout.startswith("scenario OK")
