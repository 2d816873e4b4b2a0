"""The benchmark's own tests, at tiny sizes.

    python3 -m pytest -q benchmarks/tests

They check that the printed metric names are those of BENCHMARK.json,
that a traced replay reproduces the untraced report byte for byte, and
that every output check rejects a deliberately wrong report.
"""

import copy
import dataclasses
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run as bench  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 5

TINY = {
    "volume-growth": ({"trials": 2, "r_max": 4, "window": (2, 4)}, 2),
    "layer-stats": ({"trials": 2, "window": (2, 4)}, 2),
    "inv-degree": ({"trials": 100}, 100),
    "walk-speed": ({"walks": 2, "n_steps": 1000, "audit_trials": 1, "audit_radius": 2}, 2),
}


def tiny(name: str):
    settings, trials = TINY[name]
    return dataclasses.replace(WORKLOADS[name], settings=settings, trials=trials)


@pytest.fixture(scope="module")
def tiny_rounds():
    bench.OUT.mkdir(exist_ok=True)
    return {name: bench.timed_rounds(tiny(name), SEED, 0.0, 2)[0] for name in TINY}


def spec_names(key: str) -> list:
    return [m["name"] for m in json.loads(bench.SPEC_FILE.read_text())[key]]


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metric_names_match_benchmark_json(trace, monkeypatch, capsys):
    name = "inv-degree"
    monkeypatch.setitem(WORKLOADS, name, tiny(name))
    monkeypatch.setattr(bench, "MIN_ROUNDS", 1)
    monkeypatch.setattr(bench, "SETUP_PROCESSES", 1)
    code = bench.main(["--workload", name, "--seed", str(SEED), "--seconds", "0",
                       "--trace", str(trace)])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    doc = json.loads(lines[-1])
    assert sorted(doc) == ["attempted", "correct", "failed", "metrics"]
    assert list(doc["metrics"]) == spec_names("per_layer" if trace else "end_to_end")
    units = {m["name"]: m["unit"] for key in ("end_to_end", "per_layer")
             for m in json.loads(bench.SPEC_FILE.read_text())[key]}
    assert all(v["unit"] == units[n] for n, v in doc["metrics"].items())
    printed = {ln.split(" = ")[0].split(" ", 1)[1] for ln in lines if " = " in ln}
    assert set(units) <= printed


@pytest.mark.parametrize("name", list(TINY))
def test_traced_replay_is_byte_identical(name, tiny_rounds):
    w = tiny(name)
    wall, text, layers = bench.traced_replay(w, SEED)
    _, steps, _, untraced = tiny_rounds[name][0]
    assert text == untraced
    assert layers["peeling.peel_steps"] == steps > 0
    assert set(layers) | {"trace.overhead_ratio"} == set(spec_names("per_layer"))


@pytest.mark.parametrize("name", list(TINY))
def test_cross_checks_pass(name):
    w = tiny(name)
    from tripeel import build_params

    assert w.cross_check(w, build_params(**w.coupling), SEED) == []


# -- every check rejects a wrong report ------------------------------------


def ideal(name: str, rounds: list) -> list:
    """The tiny rounds with their statistics moved onto the targets, so
    that only a deliberate change can make the check fail."""
    w = tiny(name)
    out = []
    for k, (_, _, rep, _) in enumerate(rounds):
        rep = copy.deepcopy(rep)
        res = rep["results"]
        if name == "volume-growth":
            tgt = workloads.volume_targets(w.alpha)
            for key, v in tgt.items():
                res[key]["mean"] = v
                for row in res["per_trial"]:
                    row[key] = v
        elif name == "layer-stats":
            tgt = workloads.layer_target(w.alpha)
            res["layer_time_ratio"]["mean"] = tgt
            for row in res["per_trial"]:
                row["layer_time_ratio"] = tgt
        elif name == "inv-degree":
            res["inv_degree"].update(mean=1.0 / 6.0, se=0.004)
        else:
            res["pooled_fit"]["r2"] = 0.999
            for i, row in enumerate(res["per_walk"]):
                row["speed"] = 0.1 + 0.001 * i
            res["speed"]["mean"] = sum(r["speed"] for r in res["per_walk"]) / w.trials
            res["speed"]["low"] = 0.05
        out.append((SEED, k, rep))
    return out


def scale_rows(res: dict, key: str, rows_key: str, factor: float) -> None:
    for row in res[rows_key]:
        row[key] *= factor
    res[key]["mean"] *= factor


def _volume(res):
    scale_rows(res, "boundary_ratio", "per_trial", 1.2)


def _volume_bulk(res):
    scale_rows(res, "volume_per_boundary", "per_trial", 0.7)


def _volume_summary(res):
    res["boundary_ratio"]["mean"] *= 1.2


def _volume_target(res):
    res["targets"]["volume_per_boundary"] *= 1 + 1e-9


def _layer(res):
    scale_rows(res, "layer_time_ratio", "per_trial", 1.2)


def _layer_target(res):
    res["target"] *= 1.2


def _inv(res):
    res["inv_degree"]["mean"] *= 1.2


def _inv_discarded(res):
    res["inv_degree"]["discarded"] = 1


def _walk_low(res):
    res["speed"]["low"] = -0.01


def _walk_r2(res):
    res["pooled_fit"]["r2"] = 0.95


def _walk_far(res):
    res["per_walk"][0]["final_displacement"] = res["audit"]["n_steps"] + 1


def _walk_summary(res):
    res["speed"]["mean"] *= 1.2


WRONG = [
    ("volume-growth", _volume), ("volume-growth", _volume_bulk),
    ("volume-growth", _volume_summary), ("volume-growth", _volume_target),
    ("layer-stats", _layer), ("layer-stats", _layer_target),
    ("inv-degree", _inv), ("inv-degree", _inv_discarded),
    ("walk-speed", _walk_low), ("walk-speed", _walk_r2),
    ("walk-speed", _walk_far), ("walk-speed", _walk_summary),
]


@pytest.mark.parametrize("name,spoil", WRONG, ids=[f.__name__ for _, f in WRONG])
def test_check_rejects_wrong_report(name, spoil, tiny_rounds):
    w = tiny(name)
    good = ideal(name, tiny_rounds[name])
    assert w.check(w, good)[0] == []
    bad = copy.deepcopy(good)
    for _, _, rep in bad:
        spoil(rep["results"])
    assert w.check(w, bad)[0]


def test_volume_check_tolerates_one_small_boundary_trial(tiny_rounds):
    """A trial whose boundary stays small has a huge bulk per boundary;
    the median keeps one such trial from failing a correct run."""
    w = tiny("volume-growth")
    rounds = ideal("volume-growth", tiny_rounds["volume-growth"])
    res = rounds[0][2]["results"]
    res["per_trial"][0]["volume_per_boundary"] = 225.0
    key = "volume_per_boundary"
    res[key]["mean"] = sum(row[key] for row in res["per_trial"]) / w.trials
    assert w.check(w, rounds)[0] == []


@pytest.mark.parametrize("name", list(TINY))
def test_check_rejects_wrong_stream_or_settings(name, tiny_rounds):
    w = tiny(name)
    good = ideal(name, tiny_rounds[name])
    other_seed = [(SEED + 1, k, rep) for _, k, rep in good]
    assert w.check(w, other_seed)[0]
    bigger = dataclasses.replace(w, trials=w.trials + 1)
    assert w.check(bigger, good)[0]
