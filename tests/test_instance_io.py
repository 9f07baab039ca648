import csv
import dataclasses
import json
import math

import numpy as np
import pytest

from staq.analysis import SweepRow, bound_report, brute_force_optimal, random_instance
from staq.instance_io import (
    LearningCurveRow,
    instance_from_document,
    instance_to_document,
    load_dataset_csv,
    load_gp_model,
    load_instance,
    infeasible_document,
    oracle_document,
    save_gp_model,
    save_instance,
    solution_document,
    write_json_result,
    write_learning_csv,
    write_sweep_csv,
)
from staq.learning import gp_fit, gp_predict
from staq.model import InvalidInput
from staq.scheduler import worst_makespan
from staq.search import SearchStats, solve

from helpers import drop_one_domain, save_dataset_csv


# ----------------------------------------------------------- instance JSON

def test_instance_document_roundtrip():
    domain = random_instance(0)
    loaded = instance_from_document(instance_to_document(domain, seed=0))
    got = loaded.domain
    assert got.n_tasks == domain.n_tasks
    assert got.n_robots == domain.n_robots
    assert got.time_budget == domain.time_budget
    assert got.alpha == domain.alpha
    assert got.world.occupied == domain.world.occupied
    assert np.allclose(got.traits, domain.traits)
    assert got.network.precedence == domain.network.precedence
    assert got.network.mutex == domain.network.mutex
    assert loaded.seed == 0
    assert worst_makespan(got) == pytest.approx(worst_makespan(domain))
    # same instance solves the same way
    a, _ = solve(domain)
    b, _ = solve(got)
    assert a.allocation == b.allocation
    assert a.schedule.makespan == pytest.approx(b.schedule.makespan)


def test_instance_documents_round_trip_exactly():
    for seed in range(50):
        doc = instance_to_document(random_instance(seed), seed=seed)
        loaded = instance_from_document(doc)
        again = instance_to_document(loaded.domain, seed=loaded.seed)
        assert again == json.loads(json.dumps(doc)), f"seed {seed}"


def test_save_and_load_instance_file(tmp_path):
    domain = random_instance(1)
    path = tmp_path / "instance.json"
    save_instance(domain, path, seed=1)
    loaded = load_instance(path)
    assert loaded.seed == 1
    assert loaded.domain.time_budget == domain.time_budget
    assert worst_makespan(loaded.domain) == pytest.approx(worst_makespan(domain))

    override = load_instance(path, alpha_override=0.7)
    assert override.domain.alpha == 0.7


def test_instance_requires_core_keys():
    doc = instance_to_document(random_instance(2))
    for key in ("robots", "tasks", "map", "time_budget"):
        broken = dict(doc)
        del broken[key]
        with pytest.raises(InvalidInput, match=key):
            instance_from_document(broken)


def test_malformed_json_reports_line_and_column(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "map": [,]\n}\n', encoding="utf-8")
    with pytest.raises(InvalidInput, match=r"line 2"):
        load_instance(path)


def test_missing_file_is_an_invalid_input(tmp_path):
    with pytest.raises(InvalidInput, match="cannot read"):
        load_instance(tmp_path / "nope.json")


def test_instance_rejects_malformed_fields(tmp_path):
    base = instance_to_document(random_instance(3))

    doc = json.loads(json.dumps(base))
    doc["robots"][0]["start"] = [1]
    with pytest.raises(InvalidInput, match="start"):
        instance_from_document(doc)

    doc = json.loads(json.dumps(base))
    doc["robots"][0]["speed"] = True
    with pytest.raises(InvalidInput, match="speed"):
        instance_from_document(doc)

    doc = json.loads(json.dumps(base))
    doc["precedence"] = [[0, 1], [1]]
    with pytest.raises(InvalidInput, match="precedence"):
        instance_from_document(doc)

    doc = json.loads(json.dumps(base))
    doc["seed"] = "tuesday"
    with pytest.raises(InvalidInput, match="seed"):
        instance_from_document(doc)

    doc = json.loads(json.dumps(base))
    doc["time_budget"] = float("inf")
    with pytest.raises(InvalidInput, match="time_budget"):
        instance_from_document(doc)

    doc = json.loads(json.dumps(base))
    doc["map"] = "not-a-list"
    with pytest.raises(InvalidInput, match="map"):
        instance_from_document(doc)

    with pytest.raises(InvalidInput, match="instance document must be a JSON object"):
        instance_from_document([base])

    for edit, match in (
        (lambda d: d.update(precedence={"0": 1}), "precedence: expected a list"),
        (lambda d: d.update(robots={}), "robots: expected a non-empty list"),
        (lambda d: d.update(robots=[]), "robots: expected a non-empty list"),
        (lambda d: d.update(tasks="all"), "tasks: expected a non-empty list"),
        (lambda d: d.update(tasks=[]), "tasks: expected a non-empty list"),
        (lambda d: d["robots"].__setitem__(0, [1.0]), r"robots\[0\]: expected an object"),
        (lambda d: d["tasks"].__setitem__(1, "task"), r"tasks\[1\]: expected an object"),
        (lambda d: d["robots"][0].pop("speed"), r"robots\[0\]: missing key 'speed'"),
        (lambda d: d["tasks"][0].pop("end_site"), r"tasks\[0\]: missing key 'end_site'"),
        (lambda d: d["robots"][0].update(traits=[]), r"robots\[0\]\.traits: expected a non-empty"),
        (lambda d: d["tasks"][0].update(quality_map=[1.0]), "quality_map must be an object"),
        (lambda d: d["tasks"][0]["quality_map"].update(weights=[]),
         r"tasks\[0\]\.quality_map\.weights: expected a non-empty"),
    ):
        doc = json.loads(json.dumps(base))
        edit(doc)
        with pytest.raises(InvalidInput, match=match):
            instance_from_document(doc)

    for key, model_doc in (("x_train", {"y_train": [0.5]}), ("y_train", {"x_train": [[1.0]]})):
        (tmp_path / "model.json").write_text(json.dumps(model_doc), encoding="utf-8")
        doc = json.loads(json.dumps(base))
        doc["tasks"][0]["quality_map"] = {"type": "learned", "model_path": "model.json"}
        with pytest.raises(InvalidInput, match=f"model document missing key '{key}'"):
            instance_from_document(doc, base_dir=tmp_path)

    unserializable = dataclasses.replace(
        random_instance(3), quality_maps=(lambda traits: 0.5,) * len(base["tasks"]))
    with pytest.raises(InvalidInput, match="task 0: quality map function is not serializable"):
        instance_to_document(unserializable)


def test_invalid_robot_or_task_is_named_by_its_position():
    base = instance_to_document(random_instance(3))
    doc = json.loads(json.dumps(base))
    doc["robots"][1]["traits"][0] = -0.5
    with pytest.raises(InvalidInput, match=r"^robots\[1\]: robot traits must be non-negative"):
        instance_from_document(doc)
    doc = json.loads(json.dumps(base))
    doc["tasks"][0]["duration"] = 0
    with pytest.raises(InvalidInput, match=r"^tasks\[0\]: task duration must be positive"):
        instance_from_document(doc)


def test_big_m_is_validated_then_ignored():
    domain = random_instance(4)
    doc = instance_to_document(domain)
    assert "big_m" not in doc
    for bad in (0.0, -1.0, float("inf"), "large", True):
        doc["big_m"] = bad
        with pytest.raises(InvalidInput, match="big_m"):
            instance_from_document(doc)
    for ok in (0.5, 1e6):
        doc["big_m"] = ok
        loaded = instance_from_document(doc).domain
        assert instance_to_document(loaded) == instance_to_document(domain)


def test_quality_map_documents_are_validated():
    base = instance_to_document(random_instance(5))

    doc = json.loads(json.dumps(base))
    doc["tasks"][0]["quality_map"] = {"type": "mystery"}
    with pytest.raises(InvalidInput, match="type"):
        instance_from_document(doc)

    doc = json.loads(json.dumps(base))
    doc["tasks"][0]["quality_map"] = {"type": "linear", "weights": [1.0]}
    with pytest.raises(InvalidInput, match="normalizer"):
        instance_from_document(doc)

    doc = json.loads(json.dumps(base))
    doc["tasks"][0]["quality_map"] = {"type": "learned"}
    with pytest.raises(InvalidInput, match="model_path"):
        instance_from_document(doc)


# --------------------------------------------------------------- GP models

def test_gp_model_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    model = gp_fit(rng.uniform(size=(6, 3)), rng.uniform(size=6),
                   length_scale=1.3, noise_var=1e-5)
    path = tmp_path / "model.json"
    save_gp_model(model, path)
    loaded = load_gp_model(path)
    assert loaded.length_scale == model.length_scale
    assert loaded.signal_var == model.signal_var
    assert loaded.noise_var == model.noise_var
    xq = rng.uniform(size=(4, 3))
    got_mean, got_var = gp_predict(loaded, xq)
    want_mean, want_var = gp_predict(model, xq)
    assert np.allclose(got_mean, want_mean, atol=1e-12)
    assert np.allclose(got_var, want_var, atol=1e-12)


def test_learned_quality_map_loads_relative_to_the_instance(tmp_path):
    rng = np.random.default_rng(1)
    domain = random_instance(6)
    model = gp_fit(rng.uniform(size=(5, domain.n_traits)), rng.uniform(size=5))
    save_gp_model(model, tmp_path / "qmap.json")

    doc = instance_to_document(domain)
    doc["tasks"][0]["quality_map"] = {"type": "learned", "model_path": "qmap.json"}
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(doc), encoding="utf-8")

    loaded = load_instance(path)
    traits = np.full(domain.n_traits, 0.5)
    want, _ = gp_predict(model, traits[None, :])
    assert loaded.domain.quality_maps[0](traits) == pytest.approx(float(want[0]))


def test_saving_a_learned_map_requires_model_paths(tmp_path):
    from staq.learning import GPQualityMap
    import dataclasses

    domain = random_instance(7)
    model = gp_fit(np.random.default_rng(2).uniform(size=(4, domain.n_traits)),
                   np.linspace(0.1, 0.9, 4))
    maps = (GPQualityMap(model),) + domain.quality_maps[1:]
    learned = dataclasses.replace(domain, quality_maps=maps)
    with pytest.raises(InvalidInput, match="model_paths"):
        instance_to_document(learned)
    doc = instance_to_document(learned, model_paths={0: "m.json"})
    assert doc["tasks"][0]["quality_map"] == {"type": "learned",
                                              "model_path": "m.json"}


# ----------------------------------------------------------- result JSON

def test_solution_document_layout():
    domain = drop_one_domain(time_budget=9.0)
    sol, stats = solve(domain)
    report = bound_report(domain, sol, stats,
                          oracle=brute_force_optimal(domain))
    doc = solution_document(domain, sol, stats, report)
    assert doc["status"] == "solution"
    assert doc["allocation"] == [[1, 0], [1, 1]]
    assert doc["allocation_key"] == 0b1011
    assert doc["makespan"] == pytest.approx(9.0)
    assert doc["scores"]["quality_loss"] == pytest.approx(0.25)
    assert doc["scores"]["budget_overrun"] == 0.0
    assert doc["bounds"]["q_optimal"] == pytest.approx(1.5)
    assert doc["bounds"]["holds_apriori"] is True
    assert doc["bounds"]["guarantee_applies"] is True
    assert doc["stats"]["nodes_expanded"] == stats.nodes_expanded
    plans = doc["motion_plans"]
    assert plans == sorted(plans, key=lambda p: (p["robot"], p["task"]))
    assert {(p["robot"], p["task"]) for p in plans} == set(sol.motion_plans)
    # the document is JSON-serializable as-is
    json.dumps(doc)


def test_infinite_bounds_use_the_documented_sentinel():
    import dataclasses

    domain = dataclasses.replace(drop_one_domain(time_budget=9.0), alpha=1.0)
    sol, stats = solve(domain)
    report = bound_report(domain, sol, stats)
    doc = solution_document(domain, sol, stats, report)
    assert doc["bounds"]["apriori_bound"] == "inf"
    json.dumps(doc)


def test_infeasible_document_layout():
    domain = drop_one_domain(time_budget=0.5)
    sol, stats = solve(domain)
    assert sol is None
    doc = infeasible_document(domain, stats)
    assert doc["status"] == "infeasible"
    assert doc["time_budget"] == 0.5
    assert doc["stats"]["nodes_generated"] == 1   # the root; the empty allocation overruns
    json.dumps(doc)


def test_result_documents_write_one_stats_block():
    sol, stats = solve(drop_one_domain(time_budget=9.0))
    nothing, none_stats = solve(drop_one_domain(time_budget=0.5))
    assert sol is not None and nothing is None
    written = solution_document(drop_one_domain(), sol, stats)["stats"]
    failed = infeasible_document(drop_one_domain(), none_stats)["stats"]
    # every scalar counter; the best open node is for the bound report only,
    # and scheduler_calls is a property that reads nodes_generated
    fields = [f.name for f in dataclasses.fields(SearchStats) if f.name != "best_open"]
    fields.append("scheduler_calls")
    assert sorted(written) == sorted(failed) == sorted(fields)
    assert {"bnb_runs", "bnb_nodes"} <= written.keys()
    for name in fields:
        assert written[name] == getattr(stats, name)
        assert failed[name] == getattr(none_stats, name)


def test_oracle_document_layout():
    domain = drop_one_domain(time_budget=9.0)
    result = brute_force_optimal(domain)
    doc = oracle_document(domain, result)
    assert doc["status"] == "solution"
    assert doc["quality"] == pytest.approx(1.5)
    assert doc["allocation_key"] == 0b1011
    assert doc["n_strictly_better"] == 1

    infeasible = brute_force_optimal(drop_one_domain(time_budget=0.5))
    doc = oracle_document(drop_one_domain(time_budget=0.5), infeasible)
    assert doc["status"] == "no_feasible"
    assert "quality" not in doc
    json.dumps(doc)


def test_json_results_are_deterministic(tmp_path):
    domain = drop_one_domain(time_budget=9.0)
    sol, stats = solve(domain)
    doc = solution_document(domain, sol, stats, None)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    write_json_result(doc, a)
    write_json_result(doc, b)
    assert a.read_bytes() == b.read_bytes()
    text = a.read_text(encoding="utf-8")
    assert text.endswith("\n")
    assert json.loads(text)["status"] == "solution"


def test_a_result_holding_nan_raises_and_writes_nothing(tmp_path):
    domain = drop_one_domain(time_budget=9.0)
    sol, stats = solve(domain)
    doc = solution_document(domain, sol, stats, bound_report(domain, sol, stats))
    doc["bounds"]["posthoc_bound"] = float("nan")   # JSON has no NaN
    out = tmp_path / "result.json"
    with pytest.raises(ValueError):
        write_json_result(doc, out)
    assert not out.exists()


# ------------------------------------------------------------------- CSVs

def test_sweep_csv_format(tmp_path):
    rows = [
        SweepRow(alpha=0.0, quality=1.5, makespan=9.0, norm_gap=0.0,
                 norm_apriori_bound=0.0, norm_posthoc_bound=0.0,
                 holds_apriori=True, holds_posthoc=True),
        SweepRow(alpha=1.0, quality=1.0, makespan=8.0, norm_gap=0.25,
                 norm_apriori_bound=math.inf, norm_posthoc_bound=0.0,
                 holds_apriori=True, holds_posthoc=False),
    ]
    path = tmp_path / "sweep.csv"
    write_sweep_csv(rows, path)
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    assert lines[0] == ("alpha,quality,makespan,norm_gap,norm_apriori_bound,"
                        "norm_posthoc_bound,holds_apriori,holds_posthoc")
    assert lines[1] == "0.0,1.5,9.0,0.0,0.0,0.0,true,true"
    assert lines[2] == "1.0,1.0,8.0,0.25,inf,0.0,true,false"
    assert "\r" not in text


def test_learning_csv_plain_and_envelope(tmp_path):
    rows = [
        LearningCurveRow("entropy", 0, 1, 0.30),
        LearningCurveRow("uniform", 0, 1, 0.40),
        LearningCurveRow("uniform", 1, 1, 0.20),
    ]
    plain = tmp_path / "plain.csv"
    write_learning_csv(rows, plain)
    with open(plain, newline="") as fh:
        got = list(csv.reader(fh))
    assert got[0] == ["strategy", "seed", "step", "rmse"]
    assert got[1] == ["entropy", "0", "1", "0.3"]

    env = tmp_path / "envelope.csv"
    write_learning_csv(rows, env, envelope=True)
    with open(env, newline="") as fh:
        got = list(csv.reader(fh))
    assert got[0] == ["strategy", "seed", "step", "rmse",
                      "rmse_min", "rmse_mean", "rmse_max"]
    # uniform step 1 aggregates over its two seeds
    assert got[2] == ["uniform", "0", "1", "0.4", "0.2",
                      repr(float(np.mean([0.4, 0.2]))), "0.4"]
    assert got[3][4:] == got[2][4:]


def test_dataset_csv_roundtrip(tmp_path):
    features = np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]])
    labels = np.array([0.0, 0.5, 1.0])
    path = tmp_path / "data.csv"
    save_dataset_csv(features, labels, path)
    with open(path, newline="") as fh:
        header = next(csv.reader(fh))
    assert header == ["trait_0", "trait_1", "label"]
    got_x, got_y = load_dataset_csv(path)
    assert np.allclose(got_x, features)
    assert np.allclose(got_y, labels)

    named = tmp_path / "named.csv"
    save_dataset_csv(features, labels, named,
                     trait_names=["speed", "grip"], label_name="score")
    with open(named, newline="") as fh:
        assert next(csv.reader(fh)) == ["speed", "grip", "score"]


def test_dataset_csv_rejects_bad_shapes_and_rows(tmp_path):
    with pytest.raises(InvalidInput):
        save_dataset_csv(np.ones((3, 2)), np.ones(2), tmp_path / "x.csv")

    p = tmp_path / "short.csv"
    p.write_text("trait_0,label\n", encoding="utf-8")
    with pytest.raises(InvalidInput, match="at least one sample"):
        load_dataset_csv(p)

    p = tmp_path / "narrow.csv"
    p.write_text("label\n0.5\n", encoding="utf-8")
    with pytest.raises(InvalidInput, match="trait column"):
        load_dataset_csv(p)

    p = tmp_path / "ragged.csv"
    p.write_text("a,label\n0.1,0.2\n0.3\n", encoding="utf-8")
    with pytest.raises(InvalidInput, match="line 3"):
        load_dataset_csv(p)

    p = tmp_path / "words.csv"
    p.write_text("a,label\nfoo,0.2\n", encoding="utf-8")
    with pytest.raises(InvalidInput, match="line 2"):
        load_dataset_csv(p)

    with pytest.raises(InvalidInput, match="cannot read"):
        load_dataset_csv(tmp_path / "absent.csv")


@pytest.mark.parametrize("rows", (
    "0.1,0.2,0.5\n0.3,0.4,nan\n",   # a NaN label
    "0.1,0.2,0.5\n0.3,-inf,0.5\n",  # an infinite feature
))
def test_dataset_csv_rejects_non_finite_cells(tmp_path, rows):
    p = tmp_path / "spoiled.csv"
    p.write_text("a,b,label\n" + rows, encoding="utf-8")
    with pytest.raises(InvalidInput, match="line 3: values must be finite"):
        load_dataset_csv(p)
