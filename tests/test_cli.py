import csv
import dataclasses
import json
import subprocess
import sys

import numpy as np
import pytest

from staq.analysis import random_instance
from staq.cli import EXIT_ERROR, EXIT_INFEASIBLE, EXIT_OK, main
from staq.instance_io import instance_to_document, save_gp_model, save_instance
from staq.learning import LinearQualityMap

from staq.search import solve

from helpers import drop_one_domain, gp_below_null_domain, save_dataset_csv, walled_world


@pytest.fixture
def instance_file(tmp_path):
    path = tmp_path / "instance.json"
    save_instance(drop_one_domain(time_budget=9.0), path)
    return path


@pytest.fixture
def dataset_file(tmp_path):
    rng = np.random.default_rng(0)
    features = rng.uniform(size=(24, 2))
    labels = np.clip(0.2 + 0.6 * features[:, 0], 0.0, 1.0)
    path = tmp_path / "dataset.csv"
    save_dataset_csv(features, labels, path)
    return path


# ------------------------------------------------------------------ solve

def test_a_learned_map_whose_root_scores_below_null_solves_and_sweeps(tmp_path):
    """The model accepts a learned map that scores the whole team below the
    empty allocation, so solve, oracle and sweep all exit 0 on it, written
    as a document with its model file; the solve reads back to the
    in-memory allocation and quality, no better than the oracle's."""
    domain = gp_below_null_domain()
    save_gp_model(domain.quality_maps[0].model, tmp_path / "qmap.json")
    instance = tmp_path / "instance.json"
    save_instance(domain, instance, model_paths={0: "qmap.json"})
    for command, name in (("solve", "solution.json"), ("oracle", "oracle.json"),
                          ("sweep", "sweep.csv")):
        assert main([command, str(instance), "-o", str(tmp_path / name)]) == EXIT_OK
    written = json.loads((tmp_path / "solution.json").read_text(encoding="utf-8"))
    oracle = json.loads((tmp_path / "oracle.json").read_text(encoding="utf-8"))
    sol, _ = solve(domain)
    assert written["allocation_key"] == sol.allocation.key
    assert written["total_quality"] == pytest.approx(sol.total_quality)
    assert written["total_quality"] <= oracle["quality"] + 1e-9


def test_solve_writes_a_solution(instance_file, tmp_path, capsys):
    out = tmp_path / "solution.json"
    rc = main(["solve", str(instance_file), "-o", str(out)])
    assert rc == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["status"] == "solution"
    assert doc["allocation_key"] == 0b1011
    assert doc["makespan"] == pytest.approx(9.0)
    assert doc["bounds"] is not None
    assert capsys.readouterr().out.startswith("solution:")


def test_solve_alpha_override(instance_file, tmp_path):
    out = tmp_path / "solution.json"
    rc = main(["solve", str(instance_file), "--alpha", "0.7", "-o", str(out)])
    assert rc == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["alpha"] == 0.7
    assert doc["bounds"]["alpha"] == 0.7


def test_solve_alpha_override_keeps_the_document_alpha_check(tmp_path, capsys):
    path = tmp_path / "instance.json"
    doc = instance_to_document(drop_one_domain(time_budget=9.0))
    doc["alpha"] = 1.5
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "solution.json"
    assert main(["solve", str(path), "--alpha", "0.3", "-o", str(out)]) == EXIT_ERROR
    assert "alpha must be in [0,1], got 1.5" in capsys.readouterr().err
    assert not out.exists()


def test_solve_reports_infeasible_with_exit_2(tmp_path, capsys):
    path = tmp_path / "tight.json"
    save_instance(drop_one_domain(time_budget=0.5), path)
    out = tmp_path / "result.json"
    rc = main(["solve", str(path), "-o", str(out)])
    assert rc == EXIT_INFEASIBLE
    doc = json.loads(out.read_text())
    assert doc["status"] == "infeasible"
    assert capsys.readouterr().out.startswith("infeasible:")


# ----------------------------------------------------------------- oracle

def test_oracle_agrees_with_solve(instance_file, tmp_path):
    sol_path = tmp_path / "solution.json"
    orc_path = tmp_path / "oracle.json"
    assert main(["solve", str(instance_file), "-o", str(sol_path)]) == EXIT_OK
    assert main(["oracle", str(instance_file), "-o", str(orc_path)]) == EXIT_OK
    sol = json.loads(sol_path.read_text())
    orc = json.loads(orc_path.read_text())
    assert orc["status"] == "solution"
    assert sol["total_quality"] <= orc["quality"] + 1e-9
    assert orc["quality"] == pytest.approx(1.5)


def test_oracle_refuses_oversized_instances(tmp_path, capsys):
    # 3 robots x 7 tasks = 21 assignment bits, beyond the enumeration limit
    from staq.model import ProblemDomain, Robot, Task, TaskNetwork, WorldMap

    world = WorldMap.from_ascii(["...", "...", "..."])
    robots = tuple(
        Robot(traits=np.array([1.0]), start_cell=(0, 0), speed=1.0)
        for i in range(3)
    )
    tasks = tuple(
        Task(duration=1.0, start_site=(1, 1), end_site=(1, 1))
        for i in range(7)
    )
    domain = ProblemDomain(
        network=TaskNetwork(tasks=tasks),
        robots=robots,
        quality_maps=tuple(LinearQualityMap(np.array([1.0]), 1.0) for _ in range(7)),
        world=world,
        time_budget=100.0,
    )
    path = tmp_path / "big.json"
    save_instance(domain, path)
    rc = main(["oracle", str(path), "-o", str(tmp_path / "oracle.json")])
    assert rc == EXIT_ERROR
    assert capsys.readouterr().err.startswith("error:")


# ------------------------------------------------------------------ sweep

def test_sweep_writes_default_grid(instance_file, tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", str(instance_file), "-o", str(out)])
    assert rc == EXIT_OK
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 12  # header + 11 weights
    assert [r[0] for r in rows[1:]] == [repr(i / 10) for i in range(11)]

    again = tmp_path / "sweep2.csv"
    assert main(["sweep", str(instance_file), "-o", str(again)]) == EXIT_OK
    assert out.read_bytes() == again.read_bytes()


def test_sweep_with_explicit_alphas(instance_file, tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", str(instance_file), "--alphas", "0.0,0.5", "-o", str(out)])
    assert rc == EXIT_OK
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 3


def test_sweep_rejects_bad_alphas(instance_file, tmp_path, capsys):
    out = str(tmp_path / "sweep.csv")
    assert main(["sweep", str(instance_file), "--alphas", "1.5", "-o", out]) == EXIT_ERROR
    assert "alpha must be in [0,1], got 1.5" in capsys.readouterr().err
    assert main(["sweep", str(instance_file), "--alphas", "x", "-o", out]) == EXIT_ERROR
    assert main(["sweep", str(instance_file), "--alphas", ",", "-o", out]) == EXIT_ERROR


def test_sweep_infeasible_instance(tmp_path):
    path = tmp_path / "tight.json"
    save_instance(drop_one_domain(time_budget=0.5), path)
    rc = main(["sweep", str(path), "-o", str(tmp_path / "sweep.csv")])
    assert rc == EXIT_INFEASIBLE


@pytest.mark.parametrize("command", ["solve", "oracle", "sweep"])
def test_a_budget_overrun_below_1e9_is_infeasible_everywhere(command, tmp_path):
    # One robot standing on one 4 s task: every allocation's makespan is
    # 4.0, which overruns the budget by 5e-10. The search and the oracle
    # judge the budget by the same rule, so all three commands say so.
    from staq.model import ProblemDomain, Robot, Task, TaskNetwork

    domain = ProblemDomain(
        network=TaskNetwork(tasks=(Task(duration=4.0, start_site=(0, 0), end_site=(0, 0)),)),
        robots=(Robot(traits=np.array([1.0]), start_cell=(0, 0), speed=1.0),),
        quality_maps=(LinearQualityMap([1.0], 1.0),),
        world=walled_world(),
        time_budget=4.0 - 5e-10,
    )
    path = tmp_path / "tight.json"
    save_instance(domain, path)
    assert main([command, str(path), "-o", str(tmp_path / "out")]) == EXIT_INFEASIBLE


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_zero_quality_span_writes_no_nan(tmp_path):
    # Every map weights only a trait all robots have at 0, so q_root = q_null
    # and the a-priori bound is 0. The budget is the estimated worst makespan,
    # so the margin is 0; the wall makes planned travel longer, the root
    # overruns once refined, and the best open node's overrun is inf.
    from staq.model import ProblemDomain, Robot, Task, TaskNetwork
    from staq.search import solve

    robots = tuple(Robot(traits=np.array([1.0 + i, 0.0]), start_cell=(i, 0), speed=1.0)
                   for i in range(3))
    tasks = tuple(Task(duration=2.0, start_site=(7 + i, 0), end_site=(7 + i, 0))
                  for i in range(2))
    domain = ProblemDomain(
        network=TaskNetwork(tasks=tasks), robots=robots, world=walled_world(),
        quality_maps=tuple(LinearQualityMap(np.array([0.0, 1.0]), 1.0) for _ in tasks),
        time_budget=1000.0,
    )
    worst = solve(domain)[1].worst_makespan
    path = tmp_path / "zero_span.json"
    save_instance(dataclasses.replace(domain, time_budget=worst), path)

    out = tmp_path / "solution.json"
    assert main(["solve", str(path), "-o", str(out)]) == EXIT_OK
    doc = json.loads(out.read_text(), parse_constant=_reject_constant)
    assert doc["bounds"]["overrun_of_best_open"] == "inf"
    assert doc["bounds"]["posthoc_bound"] == 0.0
    assert doc["bounds"]["holds_posthoc"] is None

    sweep = tmp_path / "sweep.csv"
    assert main(["sweep", str(path), "--alphas", "0.0,0.2,0.4", "-o", str(sweep)]) == EXIT_OK
    with open(sweep, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    assert "nan" not in sweep.read_text()
    assert all(row["norm_posthoc_bound"] == "0.0" for row in rows)
    assert all(row["holds_posthoc"] == "true" for row in rows)


# ------------------------------------------------------------------ learn

def test_learn_entropy_curve(dataset_file, tmp_path, capsys):
    out = tmp_path / "curve.csv"
    rc = main(["learn", str(dataset_file), "--budget", "5",
               "--strategy", "entropy", "-o", str(out)])
    assert rc == EXIT_OK
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["strategy", "seed", "step", "rmse"]
    assert len(rows) == 6
    assert all(r[0] == "entropy" and r[1] == "0" for r in rows[1:])
    assert [r[2] for r in rows[1:]] == ["1", "2", "3", "4", "5"]
    assert "final rmse" in capsys.readouterr().out

    again = tmp_path / "curve2.csv"
    main(["learn", str(dataset_file), "--budget", "5",
          "--strategy", "entropy", "-o", str(again)])
    assert out.read_bytes() == again.read_bytes()


def test_learn_uniform_envelope(dataset_file, tmp_path):
    out = tmp_path / "curve.csv"
    rc = main(["learn", str(dataset_file), "--budget", "4",
               "--strategy", "uniform", "--seeds", "3", "-o", str(out)])
    assert rc == EXIT_OK
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][-3:] == ["rmse_min", "rmse_mean", "rmse_max"]
    assert len(rows) == 1 + 3 * 4
    for row in rows[1:]:
        lo, mid, hi = (float(v) for v in row[-3:])
        assert lo <= float(row[3]) <= hi
        assert lo <= mid <= hi


def test_learn_uniform_needs_a_seed(dataset_file, tmp_path, capsys):
    out = tmp_path / "curve.csv"
    rc = main(["learn", str(dataset_file), "--strategy", "uniform", "--seeds", "0",
               "-o", str(out)])
    assert rc == EXIT_ERROR
    assert "--seeds must be at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_learn_budget_exceeding_pool_is_an_error(dataset_file, tmp_path, capsys):
    rc = main(["learn", str(dataset_file), "--budget", "1000",
               "-o", str(tmp_path / "curve.csv")])
    assert rc == EXIT_ERROR
    assert capsys.readouterr().err.startswith("error:")


def test_learn_rejects_a_nan_label_before_labelling(dataset_file, tmp_path, capsys):
    lines = dataset_file.read_text(encoding="utf-8").splitlines()
    lines[5] = ",".join(lines[5].split(",")[:-1] + ["nan"])
    dataset_file.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "curve.csv"
    rc = main(["learn", str(dataset_file), "--budget", "5", "-o", str(out)])
    assert rc == EXIT_ERROR
    assert "line 6" in capsys.readouterr().err
    assert not out.exists()


# ----------------------------------------------------------------- errors

def test_malformed_instance_reports_position(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "robots": [,]\n}\n', encoding="utf-8")
    rc = main(["solve", str(path), "-o", str(tmp_path / "out.json")])
    assert rc == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "line 2" in err


GOOD_MODEL = {"x_train": [[0.5, 0.5], [1.0, 0.0]], "y_train": [0.5, 0.4]}


@pytest.mark.parametrize("model,field", [
    ([GOOD_MODEL], "JSON object"),
    ({**GOOD_MODEL, "length_scale": "wide"}, "length_scale"),
    ({**GOOD_MODEL, "signal_var": None}, "signal_var"),
    ({**GOOD_MODEL, "noise_var": True}, "noise_var"),
    ({**GOOD_MODEL, "prior_mean": [0.5]}, "prior_mean"),
    ({**GOOD_MODEL, "x_train": [[0.5, 0.5], [1.0]]}, "x_train"),
    ({**GOOD_MODEL, "x_train": []}, "x_train"),
    ({**GOOD_MODEL, "x_train": [[0.5, "a"], [1.0, 0.0]]}, "x_train[0]"),
    ({**GOOD_MODEL, "y_train": [0.5]}, "y_train"),
    ({**GOOD_MODEL, "y_train": [0.5, "b"]}, "y_train"),
], ids=["not-an-object", "length_scale", "signal_var", "noise_var", "prior_mean",
        "ragged-x_train", "empty-x_train", "non-numeric-x_train", "short-y_train",
        "non-numeric-y_train"])
def test_malformed_gp_model_is_an_input_error(model, field, tmp_path, capsys):
    doc = json.loads(json.dumps(instance_to_document(drop_one_domain(time_budget=9.0))))
    doc["tasks"][0]["quality_map"] = {"type": "learned", "model_path": "model.json"}
    (tmp_path / "instance.json").write_text(json.dumps(doc), encoding="utf-8")
    (tmp_path / "model.json").write_text(json.dumps(model), encoding="utf-8")
    rc = main(["solve", str(tmp_path / "instance.json"), "-o", str(tmp_path / "out.json")])
    assert rc == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error:") and field in err


def test_integer_beyond_the_float_range_is_an_input_error(tmp_path, capsys):
    doc = json.loads(json.dumps(instance_to_document(drop_one_domain(time_budget=9.0))))
    doc["time_budget"] = 10**400
    (tmp_path / "instance.json").write_text(json.dumps(doc), encoding="utf-8")
    rc = main(["solve", str(tmp_path / "instance.json"), "-o", str(tmp_path / "out.json")])
    assert rc == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error:") and "time_budget" in err


@pytest.mark.parametrize("command", ["solve", "oracle", "sweep"])
@pytest.mark.parametrize("kind", ["linear", "learned"])
def test_quality_map_of_the_wrong_width_is_an_input_error(command, kind, tmp_path, capsys):
    domain = random_instance(1)
    doc = json.loads(json.dumps(instance_to_document(domain)))
    if kind == "linear":
        doc["tasks"][0]["quality_map"]["weights"].append(0.5)
    else:
        model = {"x_train": [[0.5] * (domain.n_traits + 1), [1.0] * (domain.n_traits + 1)],
                 "y_train": [0.5, 0.4]}
        (tmp_path / "model.json").write_text(json.dumps(model), encoding="utf-8")
        doc["tasks"][0]["quality_map"] = {"type": "learned", "model_path": "model.json"}
    (tmp_path / "instance.json").write_text(json.dumps(doc), encoding="utf-8")
    rc = main([command, str(tmp_path / "instance.json"), "-o", str(tmp_path / "out")])
    assert rc == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error:") and "task 0: quality map reads" in err


def test_missing_instance_file(tmp_path, capsys):
    rc = main(["solve", str(tmp_path / "absent.json"),
               "-o", str(tmp_path / "out.json")])
    assert rc == EXIT_ERROR
    assert "cannot read" in capsys.readouterr().err


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "staq.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "solve" in proc.stdout and "oracle" in proc.stdout


def test_the_library_imports_no_scipy():
    # scipy is a test requirement only; scipy.linalg alone adds about 28 MB
    # of resident memory. A fresh interpreter, as this test process has
    # scipy loaded already.
    modules = ("staq.cli", "staq.search", "staq.analysis", "staq.learning",
               "staq.instance_io", "staq.motion")
    code = f"import sys; import {', '.join(modules)}; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
