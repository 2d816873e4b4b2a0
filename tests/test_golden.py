"""Golden digests: every experiment report, the sample-map output and the
constants card, byte for byte, at small fixed settings and seeds.

A change that alters any report, trace or map encoding, or the order in
which a run draws its uniforms, changes one of these sha256 digests.  A
change that means to do so re-pins the digest and says why.
"""

import hashlib

import pytest
from click.testing import CliRunner

from tripeel import EXPERIMENTS, RngStream, build_params, report_to_json, run_experiment
from tripeel.cli import cli

# case id -> (experiment, coupling, seed, settings, sha256 of report_to_json).
# The layer-stats and volume-growth reports run LayerChain.run_fast, whose
# block path draws one event (fresh steps, then a swallow) per three
# uniforms: new draws, same law; they also record results.work
REPORTS = {
    # block-step fill volumes come from the volume tables
    "volume-growth": (
        "volume-growth", {"alpha": "7/10"}, 1,
        {"trials": 6, "r_max": 6, "window": (2, 5)},
        "3ee5dfd968e7e72ff14dcac874074b1e1f2061b0e56997eaf4fbe065831a35bb",
    ),
    # alpha 3/4 passes the block floor within six layers: about 90% of
    # the steps are block steps, their fill volumes drawn from the tables
    "volume-growth-three-quarters": (
        "volume-growth", {"alpha": "3/4"}, 9,
        {"trials": 4, "r_max": 5, "window": (2, 5)},
        "0194427ac4c37576b06eb29bdfbb8488ad04905e963e4a7692723b703d97ce0f",
    ),
    # alpha 3/4 clamps the harmonic table, so run_fast takes the block path
    "layer-stats": (
        "layer-stats", {"alpha": "3/4"}, 2,
        {"trials": 4, "window": (4, 8)},
        "29ec0b400ed6d6e30920596af72ac48f861b07714f2f4435190438e127bc0ac9",
    ),
    # alpha 0.68 clamps the harmonic table only at p = 570, past the initial
    # table, and caps block swallows at 430: scalar steps until the boundary
    # is wide enough, blocks after
    "layer-stats-near-critical": (
        "layer-stats", {"alpha": "0.68"}, 5,
        {"trials": 3, "window": (8, 11)},
        "8e8b1addbf8a2b942226b1d8c74f15ad94dca1e8158c01400bb6c48da54ce79b",
    ),
    # alpha 4/5 clamps the harmonic table at p = 52, so the block path runs
    "layer-stats-four-fifths": (
        "layer-stats", {"alpha": "4/5"}, 8,
        {"trials": 3, "window": (3, 6)},
        "492d5c97dc11092a1db7e577f012350e1d18aecbd94c7f6e1ce30fe30deb86f7",
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
        "ced8f2ff42f7ee0f3cae9ad4e68adff284ef3abcb416cc9d619acc9d0f4cffb0",
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
        "0118be19121067c4bc9e76d221d7544aee36113798cf5c619b4bea864c4a8d96",
    ),
    "csv": (
        ("--alpha", "3/4", "--seed", "11", "--radius", "4", "--format", "csv"), 0,
        "3a110263f5cd18be7e394c0de4b9e370674e368bb41a3038eac4714be85338de",
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


# case id -> (coupling arguments, sha256 of `tripeel constants --head 12`);
# z_head evaluates Z_p at the exact root where one exists (7/10, 17/25)
CONSTANTS = {
    "kappa-2/27": (
        ("--kappa", "2/27"),
        "99b5fa3769caabed7edc850eaf46fc9aa53fc54e2800105f5cc531cb8baa3687",
    ),
    "kappa-9/128": (
        ("--kappa", "9/128"),
        "5008c156ebb4ba65358a2c1f496aa11daab9ad9feada1a3ae864a05faee53017",
    ),
    # no small-denominator root: alpha stays a float
    "kappa-0.07": (
        ("--kappa", "0.07"),
        "8e33b2fecde5ea395c76082cac3053ab094581674ecbca50998b22eb7e44354b",
    ),
    # the exact root 7/10 is recovered, so this card equals alpha-7/10's
    "kappa-0.0735": (
        ("--kappa", "0.0735"),
        "fd73f905405878c0c54e8d409956794b487b17c6eba3ef5c37efae734c158039",
    ),
    "alpha-7/10": (
        ("--alpha", "7/10"),
        "fd73f905405878c0c54e8d409956794b487b17c6eba3ef5c37efae734c158039",
    ),
    "alpha-0.68": (
        ("--alpha", "0.68"),
        "2b719600abf7eaa1a2238f76f6228ae48c6cf6184e8d25d36d905250753f4b75",
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


@pytest.mark.parametrize("case", sorted(CONSTANTS))
def test_constants_digest(case):
    args, digest = CONSTANTS[case]
    res = CliRunner().invoke(cli, ["constants", "--head", "12", *args])
    assert (res.exit_code, _sha(res.stdout)) == (0, digest)
