"""Command-line behavior: flag validation, exit codes, deterministic bytes."""

import inspect
import json

import pytest
from click.testing import CliRunner

from tripeel.cli import _EXPERIMENT_FLAGS, cli
from tripeel.errors import DomainError, InvariantViolationError
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
    assert doc["meta"]["truncated"] is False
    hull = doc["hull"]
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
    assert trace.meta["truncated"] is False
    hull = hull_from_csv((tmp_path / "map.csv.hull.csv").read_text())
    assert [h.perimeter for h in hull] == [trace.records[h.tau - 1].perimeter for h in hull]
    replayed = replay_trace(out.read_text())
    direct = json.loads(invoke(
        "sample-map", "--alpha", "0.75", "--seed", "11", "--radius", "3"
    ).output)
    assert [list(t) for t in replayed["canonical_code"]] == direct["canonical_code"]


def test_replay_reads_every_sample_map_form(tmp_path):
    args = ("sample-map", "--alpha", "3/4", "--seed", "11", "--radius", "3")
    assert invoke(*args, "--out", str(tmp_path / "map.json")).exit_code == 0
    assert invoke(*args, "--format", "csv", "--out", str(tmp_path / "map.csv")).exit_code == 0
    stdout = invoke(*args, "--format", "csv")
    assert stdout.exit_code == 0
    as_json = (tmp_path / "map.json").read_text()
    doc = json.loads(as_json)
    forms = {
        "json-file": as_json,
        # a CSV file followed by its hull file is the stdout form
        "csv-files": (tmp_path / "map.csv").read_text()
        + (tmp_path / "map.csv.hull.csv").read_text(),
        "csv-stdout": stdout.output,
    }
    assert forms["csv-files"] == forms["csv-stdout"]
    for form, text in forms.items():
        replayed = replay_trace(text)
        assert [list(t) for t in replayed["canonical_code"]] == doc["canonical_code"], form
    # the hull block on stdout is read and verified, not skipped
    last = stdout.output.rstrip("\n").rsplit("\n", 1)[1]
    r, tau, perim, vol = last.split(",")
    tampered = stdout.output.replace(last, f"{r},{tau},{int(perim) + 2},{vol}")
    with pytest.raises(InvariantViolationError, match="hull"):
        replay_trace(tampered)


def test_replay_checks_the_map_digest():
    args = ("sample-map", "--alpha", "3/4", "--seed", "11", "--radius", "2")
    doc = json.loads(invoke(*args).output)
    doc["meta"]["map_digest"] = "0" * 16
    with pytest.raises(InvariantViolationError, match="map_digest"):
        replay_trace(json.dumps(doc))
    del doc["meta"]["map_digest"]
    with pytest.raises(DomainError, match="incomplete"):
        replay_trace(json.dumps(doc))


# a three-step run as tripeel-trace-v1 wrote it, meta cut to the keys v2
# kept: `edge` held arena ids, and `step`, `dperim`, `dvol` and `filler`
# repeated the other columns
_V1_META = (
    '{"digest": "63f7adccb693c37b", "params": '
    '{"alpha": "0.75", "alpha_exact": "3/4", "kappa": "0.0703125", "kappa_exact": '
    '"9/128", "schema": "tripeel-params-v1", "tolerances": {"drift_residual": 1e-08, '
    '"harmonicity": 1e-10, "normalization": 1e-09}}, "r_max": null, "schema": '
    '"tripeel-trace-v1", "seed": 1, "selector": "stay", "spawn_key": []}'
)
_V1_CSV = (
    f"#tripeel-trace-v1 {_V1_META}\n"
    "step,edge,kind,k,side,dperim,dvol,filler,perimeter,volume\n"
    "1,0,fresh,0,,1,1,0,3,3\n"
    "2,4,swallow,1,prev,-1,0,0,2,3\n"
    "3,9,fresh,0,,1,1,0,3,4\n"
)
_V1_JSON = (
    f'{{"meta": {_V1_META}, "records": ['
    '{"dperim": 1, "dvol": 1, "edge": 0, "filler": 0, "k": 0, "kind": "fresh", '
    '"perimeter": 3, "side": null, "step": 1, "volume": 3}, '
    '{"dperim": -1, "dvol": 0, "edge": 4, "filler": 0, "k": 1, "kind": "swallow", '
    '"perimeter": 2, "side": "prev", "step": 2, "volume": 3}, '
    '{"dperim": 1, "dvol": 1, "edge": 9, "filler": 0, "k": 0, "kind": "fresh", '
    '"perimeter": 3, "side": null, "step": 3, "volume": 4}]}'
)
# the v1 sample-map JSON wrapped its trace under a schema of its own
_V1_SAMPLE = json.dumps({
    "canonical_code": [], "schema": "tripeel-sample-v1",
    "trace": json.loads(_V1_JSON), "truncated": False,
})


@pytest.mark.parametrize(
    "text, version",
    [
        (_V1_JSON, "tripeel-trace-v1"),
        (_V1_CSV, "tripeel-trace-v1"),
        (_V1_SAMPLE, "tripeel-sample-v1"),
    ],
    ids=["json", "csv", "sample-json"],
)
def test_replay_refuses_a_v1_trace_by_name(text, version):
    with pytest.raises(DomainError, match=version):
        replay_trace(text)


def test_sample_map_budget_partial(tmp_path):
    out = tmp_path / "part.json"
    res = invoke(
        "sample-map", "--alpha", "0.75", "--seed", "5", "--radius", "9",
        "--budget-steps", "40", "--out", str(out),
    )
    assert res.exit_code == 3
    doc = json.loads(out.read_text())
    assert doc["meta"]["truncated"] is True
    assert len(doc["records"]) == 40


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


def test_volume_growth_window_follows_radius():
    # the default window is the last five layers up to --radius, so a
    # radius below the default depth still runs
    res = invoke(
        "experiment", "--experiment", "volume-growth", "--alpha", "7/10",
        "--radius", "6", "--trials", "2",
    )
    assert res.exit_code == 0, res.output
    doc = json.loads(res.output)
    assert doc["settings"]["r_max"] == 6
    assert doc["settings"]["window"] == [2, 6]


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

    res = invoke("experiment", "--experiment", "volume-growth", "--alpha", "7/10", "--radius", "0")
    assert res.exit_code == 2
    assert "r_max must be at least 1, got 0" in res.stderr
    assert "window" not in res.stderr

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


_TRACE_HEAD = "#tripeel-trace-v2 {}\n"
_HULL_HEAD = "#tripeel-hull-v1 {}\n"
_TRACE_COLUMNS = "kind,k,side,perimeter,volume\n"


@pytest.mark.parametrize(
    "reader, text",
    [
        (trace_from_csv, _TRACE_HEAD),
        (trace_from_csv, _TRACE_HEAD + _TRACE_COLUMNS + "fresh,0\n"),
        (trace_from_csv, "#tripeel-trace-v2 {oops\n" + _TRACE_COLUMNS),
        (hull_from_csv, _HULL_HEAD),
        (hull_from_csv, _HULL_HEAD + "r,tau,perimeter,volume\n1,2\n"),
        (hull_from_csv, "#tripeel-hull-v1 {oops\nr,tau,perimeter,volume\n"),
        (trace_from_json, "{}"),
        (trace_from_json, "{oops"),
        (replay_trace, lambda: _edited_trace(lambda d: d["records"][0].update(bogus=1))),
        (replay_trace, lambda: _edited_trace(lambda d: d["meta"].update(selector="sideways"))),
        (replay_trace, lambda: _edited_trace(lambda d: d["meta"].pop("params"))),
        (replay_trace, lambda: _edited_trace(
            lambda d: d["meta"].update(selector="layers", r_max=None))),
        (replay_trace, lambda: _edited_trace(lambda d: d["meta"].update(params=[1, 2]))),
        (replay_trace, lambda: _edited_trace(lambda d: d["meta"].update(selector=["stay"]))),
        (replay_trace, lambda: _edited_trace(
            lambda d: d["meta"].update(selector="layers", r_max=2.5))),
        (report_from_json, "{oops"),
        (report_from_csv, "#tripeel-report-v1\npath,value\n/schema,{oops\n"),
        (report_from_csv, "#tripeel-report-v1\npath,value\n/a,1\n/a/b,2\n"),
    ],
    ids=[
        "trace-csv-header-only", "trace-csv-short-row", "trace-csv-bad-header-json",
        "hull-csv-header-only", "hull-csv-short-row", "hull-csv-bad-header-json",
        "trace-json-no-meta", "trace-json-undecodable",
        "replay-unknown-record-field", "replay-unknown-selector", "replay-no-params",
        "replay-layers-without-depth", "replay-params-not-an-object",
        "replay-selector-not-a-string", "replay-fractional-depth",
        "report-json-undecodable", "report-csv-undecodable-cell", "report-csv-path-through-value",
    ],
)
def test_readers_reject_malformed_input_with_domain_error(reader, text):
    with pytest.raises(DomainError):
        reader(text() if callable(text) else text)
