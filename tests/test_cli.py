"""Command-line behavior: flag validation, exit codes, deterministic bytes."""

import inspect
import json

import pytest
from click.testing import CliRunner

from tripeel.cli import _EXPERIMENT_FLAGS, cli
from tripeel.errors import DomainError
from tripeel.experiments import EXPERIMENTS, report_from_csv, report_from_json
from tripeel.params import build_params
from tripeel.peeling import (
    hull_from_csv,
    replay_trace,
    run_algorithm,
    trace_from_csv,
    trace_from_json,
    trace_to_json,
)
from tripeel.rng import RngStream


def invoke(*args):
    return CliRunner().invoke(cli, list(args))


def test_constants_reports_drift_and_limit():
    res = invoke("constants", "--kappa", "2/27")
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["results"]["drift"] == 0.0
    assert doc["results"]["critical"] is True
    assert doc["results"]["ctilde_limit"] is None

    res = invoke("constants", "--alpha", "0.75")
    doc = json.loads(res.output)
    assert abs(doc["results"]["ctilde_limit"] - 3.079201) < 1e-4
    assert doc["results"]["residuals"]["normalization"] < 1e-9


def test_constants_rejects_bad_coupling():
    res = invoke("constants", "--kappa", "0.08")
    assert res.exit_code == 2
    res = invoke("constants", "--kappa", "9/128", "--alpha", "0.75")
    assert res.exit_code == 2
    res = invoke("constants")
    assert res.exit_code == 2


def test_constants_accepts_the_critical_float():
    # 0.074074074074074 has no small-denominator root; its float root is
    # one ulp below 2/3 and must read as the critical point
    res = invoke("constants", "--kappa", "0.074074074074074")
    assert res.exit_code == 0, res.output
    doc = json.loads(res.stdout)
    assert doc["results"]["critical"] is True
    assert doc["results"]["drift"] == 0.0
    # a string is an exact rational, and this one is below 2/3
    assert invoke("constants", "--alpha", "0.6666666666666666").exit_code == 2


def test_constants_csv_round_trips():
    as_json = invoke("constants", "--alpha", "3/4").output
    as_csv = invoke("constants", "--alpha", "3/4", "--format", "csv").output
    assert report_from_csv(as_csv) == report_from_json(as_json)


def test_sample_map_bytes_reproducible():
    args = ("sample-map", "--alpha", "0.75", "--seed", "11", "--radius", "3")
    first = invoke(*args)
    second = invoke(*args)
    assert first.exit_code == 0
    assert first.output == second.output
    doc = json.loads(first.output)
    assert doc["truncated"] is False
    hull = doc["trace"]["hull"]
    assert [h["r"] for h in hull] == [1, 2, 3]
    assert all(h["perimeter"] > 0 for h in hull)


def test_sample_map_csv_files_replayable(tmp_path):
    out = tmp_path / "map.csv"
    res = invoke(
        "sample-map", "--alpha", "0.75", "--seed", "11", "--radius", "3",
        "--format", "csv", "--out", str(out),
    )
    assert res.exit_code == 0
    trace = trace_from_csv(out.read_text())
    assert trace.records[0].kind == "fresh"
    hull, meta = hull_from_csv((tmp_path / "map.csv.hull.csv").read_text())
    assert meta["truncated"] is False
    assert [h.perimeter for h in hull] == [
        r.perimeter for r in trace.records if r.step in {h.tau for h in hull}
    ]
    replayed = replay_trace(out.read_text())
    direct = json.loads(invoke(
        "sample-map", "--alpha", "0.75", "--seed", "11", "--radius", "3"
    ).output)
    assert [list(t) for t in replayed["canonical_code"]] == direct["canonical_code"]


def test_sample_map_budget_partial(tmp_path):
    out = tmp_path / "part.json"
    res = invoke(
        "sample-map", "--alpha", "0.75", "--seed", "5", "--radius", "9",
        "--budget-steps", "40", "--out", str(out),
    )
    assert res.exit_code == 3
    doc = json.loads(out.read_text())
    assert doc["truncated"] is True
    assert len(doc["trace"]["records"]) == 40


def test_experiment_enumerate_formats_agree():
    as_json = invoke("experiment", "--experiment", "enumerate").output
    as_csv = invoke("experiment", "--experiment", "enumerate", "--format", "csv").output
    doc = report_from_json(as_json)
    assert doc["results"]["mismatches"] == 0
    assert report_from_csv(as_csv) == doc


def test_experiment_seeded_and_deterministic():
    args = (
        "experiment", "--experiment", "intersection", "--alpha", "3/4",
        "--seed", "4", "--trials", "6", "--steps", "40",
    )
    first = invoke(*args)
    assert first.exit_code == 0
    assert first.output == invoke(*args).output
    doc = json.loads(first.output)
    assert doc["seed"] == 4
    assert doc["settings"]["trials"] == 6
    assert doc["settings"]["n_steps"] == 40
    assert doc["params"]["digest"]


def test_experiment_flag_validation():
    res = invoke(
        "experiment", "--experiment", "inv-degree", "--kappa", "2/27",
        "--trials", "4", "--steps", "9",
    )
    assert res.exit_code == 2
    assert "--steps" in res.stderr

    res = invoke("experiment", "--experiment", "enumerate", "--kappa", "2/27")
    assert res.exit_code == 2

    res = invoke("experiment", "--experiment", "no-such-thing")
    assert res.exit_code == 2

    res = invoke("experiment", "--experiment", "intersection")
    assert res.exit_code == 2


@pytest.mark.parametrize(
    "args",
    [
        ("constants", "--alpha", "3/4", "--head", "-1"),
        ("experiment", "--experiment", "law-equivalence", "--alpha", "3/4",
         "--trials", "1000", "--steps", "0"),
        ("experiment", "--experiment", "walk-speed", "--kappa", "9/128", "--radius", "-1"),
        ("experiment", "--experiment", "stationarity", "--kappa", "9/128", "--radius", "0"),
        ("sample-map", "--kappa", "9/128", "--radius", "3", "--budget-steps", "-5"),
        ("sample-map", "--kappa", "9/128", "--radius", "3", "--budget-vertices", "-1"),
    ],
    ids=[
        "constants-negative-head",
        "law-equivalence-zero-horizon",
        "walk-speed-negative-radius",
        "stationarity-zero-radius",
        "sample-map-negative-step-budget",
        "sample-map-negative-vertex-budget",
    ],
)
def test_out_of_range_settings_exit_2(args):
    assert invoke(*args).exit_code == 2


def test_experiment_flags_map_to_runner_keywords():
    """Each experiment has a flag table, and each flag it maps names a
    keyword-only argument of the runner; read from the signatures, so no
    experiment runs."""
    assert set(_EXPERIMENT_FLAGS) == set(EXPERIMENTS)
    for name, mapping in _EXPERIMENT_FLAGS.items():
        params = inspect.signature(EXPERIMENTS[name]).parameters.values()
        takes = {p.name for p in params if p.kind is p.KEYWORD_ONLY}
        assert set(mapping.values()) <= takes, name


@pytest.mark.parametrize(
    "args",
    [
        ("experiment", "--experiment", "inv-degree", "--kappa", "2/27", "--seed", "-1"),
        ("sample-map", "--kappa", "2/27", "--seed", "-1"),
    ],
    ids=["experiment", "sample-map"],
)
def test_negative_seed_exits_2(args):
    res = invoke(*args)
    assert res.exit_code == 2
    assert res.stderr.startswith("error:")


def _edited_trace(edit):
    """JSON export of a short real run, edited in place by edit(doc)."""
    doc = json.loads(trace_to_json(
        run_algorithm(build_params(kappa="9/128"), "stay", 5, RngStream(1))
    ))
    edit(doc)
    return json.dumps(doc)


_TRACE_HEAD = "#tripeel-trace-v1 {}\n"
_HULL_HEAD = "#tripeel-hull-v1 {}\n"
_TRACE_COLUMNS = "step,edge,kind,k,side,dperim,dvol,filler,perimeter,volume\n"


@pytest.mark.parametrize(
    "reader, text",
    [
        (trace_from_csv, _TRACE_HEAD),
        (trace_from_csv, _TRACE_HEAD + _TRACE_COLUMNS + "1,0,fresh\n"),
        (trace_from_csv, "#tripeel-trace-v1 {oops\n" + _TRACE_COLUMNS),
        (hull_from_csv, _HULL_HEAD),
        (hull_from_csv, _HULL_HEAD + "r,tau,perimeter,volume\n1,2\n"),
        (hull_from_csv, "#tripeel-hull-v1 {oops\nr,tau,perimeter,volume\n"),
        (trace_from_json, "{}"),
        (trace_from_json, "{oops"),
        (replay_trace, lambda: _edited_trace(lambda d: d["records"][0].update(bogus=1))),
        (replay_trace, lambda: _edited_trace(lambda d: d["meta"].update(selector="sideways"))),
        (replay_trace, lambda: _edited_trace(lambda d: d["meta"].pop("params"))),
        (replay_trace, lambda: _edited_trace(
            lambda d: d["meta"].update(driver="layers", r_max=None))),
        (report_from_json, "{oops"),
        (report_from_csv, "#tripeel-report-v1\npath,value\n/schema,{oops\n"),
        (report_from_csv, "#tripeel-report-v1\npath,value\n/a,1\n/a/b,2\n"),
    ],
    ids=[
        "trace-csv-header-only", "trace-csv-short-row", "trace-csv-bad-header-json",
        "hull-csv-header-only", "hull-csv-short-row", "hull-csv-bad-header-json",
        "trace-json-no-meta", "trace-json-undecodable",
        "replay-unknown-record-field", "replay-unknown-selector", "replay-no-params",
        "replay-layers-without-depth",
        "report-json-undecodable", "report-csv-undecodable-cell", "report-csv-path-through-value",
    ],
)
def test_readers_reject_malformed_input_with_domain_error(reader, text):
    with pytest.raises(DomainError):
        reader(text() if callable(text) else text)
