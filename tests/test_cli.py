import contextlib
import copy
import io
import json
import shutil
import subprocess
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import stagedwell as sw
from stagedwell.cli import main

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

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

    def test_needs_three_matrices(self, capsys, geometric_path):
        code, _, err = run(capsys, ["env-sweep", "--scenario", geometric_path,
                                    "--grid-step", "1.0", "--samples", "5"])
        assert code == 1
        assert err.startswith("error:")


# Scenario documents the fuzz test mutates: the two above and the shipped
# files, which between them use every schedule kind.
FUZZ_BASES = [json.loads(GEOMETRIC), json.loads(RANDOM_ENV)] + [
    json.loads(path.read_text()) for path in sorted(SCENARIOS.glob("*.json"))
]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 300) | st.floats(-2.0, 2.0)
    | st.sampled_from([1e308, -1e308, 1e-320, float("nan"), float("inf")]) | st.text(max_size=4),
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
@given(scenario_texts(), st.sampled_from(["validate", "lifetime", "occupancy", "moments"]),
       st.integers(1, 300), st.sampled_from(["csv", "json"]))
def test_fuzzed_scenarios_exit_cleanly(tmp_path_factory, text, command, order, fmt):
    path = tmp_path_factory.mktemp("fuzz") / "scenario.json"
    path.write_text(text)
    argv = [command, "--scenario", str(path), "--max-horizon", "200", "--format", fmt]
    if command == "moments":
        argv += ["--order", str(order)]
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
