"""Golden digests: every experiment report and the sample-map output, byte
for byte, at small fixed settings and seeds.

A change that alters any report, trace or map encoding, or the order in
which a run draws its uniforms, changes one of these sha256 digests.  A
change that means to do so re-pins the digest and says why.
"""

import hashlib

import pytest
from click.testing import CliRunner

from tripeel import EXPERIMENTS, RngStream, build_params, report_to_json, run_experiment
from tripeel.cli import cli

# case id -> (experiment, coupling, seed, settings, sha256 of report_to_json)
REPORTS = {
    "volume-growth": (
        "volume-growth", {"alpha": "7/10"}, 1,
        {"trials": 6, "r_max": 6, "window": (2, 5)},
        "560039947a76a4d5546af22e8e6aef1661ec9db6b727d37eb43da7f9884ab7a3",
    ),
    # alpha 3/4 clamps the harmonic table, so run_fast takes the block path
    "layer-stats": (
        "layer-stats", {"alpha": "3/4"}, 2,
        {"trials": 4, "window": (4, 8)},
        "ea450de3433b29ab34bb1481d578f82c0746ecb4e7d4b9ce11fb3d22997de1cc",
    ),
    # the step budget discards some trials
    "inv-degree": (
        "inv-degree", {"kappa": "2/27"}, 3,
        {"trials": 1000, "max_steps_per_trial": 20},
        "58cc305c859d661332896112d3d46c070c932427bb0504f10b21b536ef2d956a",
    ),
    "walk-speed": (
        "walk-speed", {"kappa": "9/128"}, 4,
        {"walks": 3, "n_steps": 2000, "audit_trials": 2, "audit_radius": 4},
        "e3ef0a8bf3f5a45ed3cc7fa9ab87e9ddb55f727be8629c010aa88a769999533d",
    ),
    "intersection": (
        "intersection", {"kappa": "9/128"}, 5,
        {"trials": 40, "n_steps": 200},
        "5aed59bbc11aa877e5d85e35d295143739ead28b8a04073bc33ae99f18d4bc99",
    ),
    # the peel budget truncates some trials
    "intersection-budget": (
        "intersection", {"kappa": "9/128"}, 5,
        {"trials": 40, "n_steps": 200, "max_peel_steps": 800},
        "3201c92adcad0597b74c9129750525ff29a793a19e46d0b5c232635f48b7f254",
    ),
    "stationarity": (
        "stationarity", {"kappa": "9/128"}, 6,
        {"trials": 40, "n_steps": 16, "k": 3, "radius": 2},
        "7e38ced2296e7f200c7548ba2cc52dbda5fd04473d162d5d941ef294de662ded",
    ),
    "law-equivalence": (
        "law-equivalence", {"kappa": "9/128"}, 7,
        {"runs": 1000, "survive_horizon": 60},
        "7d0f125cb3aa53963c2b4dd44bd5cf5420d391aaf55e16909733bfbc3d85a07a",
    ),
    "enumerate": (
        "enumerate", None, None,
        {"max_total": 7},
        "97777dde087e3849ebef94d0f5085fd01556865605753b40831238a6f9d0af9d",
    ),
}

# case id -> (sample-map arguments, expected exit code, sha256 of the files
# written: the output file, then OUT.hull.csv when the format is csv)
SAMPLES = {
    "json": (
        ("--alpha", "3/4", "--seed", "11", "--radius", "4"), 0,
        "1e1bdb4c045901310c7999ff5b6e9bbc9cb5b9ead67c591e909e257ef3950435",
    ),
    "csv": (
        ("--alpha", "3/4", "--seed", "11", "--radius", "4", "--format", "csv"), 0,
        "e8c22fa21635316b9fa5729f7a209c54ce23dee93bcdc645326b6800643696d3",
    ),
    "critical-json": (
        ("--kappa", "2/27", "--seed", "12", "--radius", "3"), 0,
        "b478f29112e51d8e72dac1ce90b187b4099962bfb337d622c69e60ebd9aff198",
    ),
    # the step budget stops the run before the requested depth
    "budget-json": (
        ("--alpha", "7/10", "--seed", "13", "--radius", "6", "--budget-steps", "60"), 3,
        "59c827bd6f33df84ac69918927e3a08793913c5c02dbe7dddede39504d6abd62",
    ),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def report_digest(case: str) -> str:
    name, coupling, seed, settings, _ = REPORTS[case]
    params = build_params(**coupling) if coupling is not None else None
    rng = RngStream(seed) if seed is not None else None
    return _sha(report_to_json(run_experiment(name, params, rng, **settings)))


def sample_digest(case: str, tmp_path) -> tuple:
    args, _, _ = SAMPLES[case]
    out = tmp_path / "map"
    res = CliRunner().invoke(cli, ["sample-map", *args, "--out", str(out)])
    written = [out, tmp_path / "map.hull.csv"] if "csv" in args else [out]
    return res.exit_code, _sha("".join(f.read_text(encoding="utf-8") for f in written))


def test_every_experiment_is_pinned():
    assert {case[0] for case in REPORTS.values()} == set(EXPERIMENTS)


@pytest.mark.parametrize("case", sorted(REPORTS))
def test_report_digest(case):
    assert report_digest(case) == REPORTS[case][-1]


@pytest.mark.parametrize("case", sorted(SAMPLES))
def test_sample_map_digest(case, tmp_path):
    _, code, digest = SAMPLES[case]
    assert sample_digest(case, tmp_path) == (code, digest)
