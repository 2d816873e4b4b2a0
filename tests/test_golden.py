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
# block path draws one event (fresh steps, then a swallow proposal) per
# three uniforms, and then, from a second block, one acceptance coin for
# each event whose swallow leaves the perimeter below the harmonic
# table's clamp index (past it the acceptance is exactly 1.0); they also
# record results.work.  Scalar steps remain below perimeter 4, in layer 1
# with volume tracked and at the critical point.  A chunk ends only at
# tau_r, a rejected coin or its last event, and is sized from the old arc
# alone.  RngStream takes each block right after the doubles generated so
# far, with no scalar window to skip, so streams that mix scalar and
# block draws read new values.  New draws, same law: these five digests
# were re-pinned.  The law-equivalence digest was re-pinned once its
# conditioned arm stopped drawing the fills it never reads (see its case)
REPORTS = {
    # the clamp index is 226 here, so in these shallow layers most events
    # carry a coin; block-step fill volumes come from the volume tables
    "volume-growth": (
        "volume-growth", {"alpha": "7/10"}, 1,
        {"trials": 6, "r_max": 6, "window": (2, 5)},
        "4dc8c80b249dfb3d063b670b0e728722502f46fa98dc5698033f7b6654bafed3",
    ),
    # alpha 3/4 passes its clamp index, 88, within six layers; fill
    # volumes are drawn from the tables
    "volume-growth-three-quarters": (
        "volume-growth", {"alpha": "3/4"}, 9,
        {"trials": 4, "r_max": 5, "window": (2, 5)},
        "bdb5155cb53a143fa0b3293beab613f6a3286839ff0b7e77daa6c2488a7c8513",
    ),
    # alpha 3/4: events without coins carry the deep layers
    "layer-stats": (
        "layer-stats", {"alpha": "3/4"}, 2,
        {"trials": 4, "window": (4, 8)},
        "eb6f6c76200be2bb434d6a75cc8b4a3e3616eddf9a12404f654e4146f2ff83ee",
    ),
    # alpha 0.68 clamps the harmonic table only at p = 570 and caps block
    # swallows at 430: events carry coins until the boundary passes the
    # clamp index, and ever fewer of them after
    "layer-stats-near-critical": (
        "layer-stats", {"alpha": "0.68"}, 5,
        {"trials": 3, "window": (8, 11)},
        "76aba89166542e27ac18bfc1b1e3cc5a705a875cf3d99bbde69daf9f62f67264",
    ),
    # alpha 4/5 clamps the harmonic table at p = 52
    "layer-stats-four-fifths": (
        "layer-stats", {"alpha": "4/5"}, 8,
        {"trials": 3, "window": (3, 6)},
        "07713e88c7afcb3a37f41f6c778eb448dfe5eb2837d6508114e78fc705c01b2a",
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
    # the conditioned arm's chains run without volume, so they draw no
    # Boltzmann fills they never read: its perimeters come from new draws
    # of the same law, and this digest was re-pinned for that
    "law-equivalence": (
        "law-equivalence", {"kappa": "9/128"}, 7,
        {"runs": 1000, "survive_horizon": 60},
        "d6b3aec85166cc9aa3282c8d884ce0cc69290a8bd3407746953ccb6dc3d0a2b9",
    ),
    "enumerate": (
        "enumerate", None, None,
        {"max_total": 7},
        "97777dde087e3849ebef94d0f5085fd01556865605753b40831238a6f9d0af9d",
    ),
}

# case id -> (sample-map arguments, expected exit code, sha256 of the files
# written: the output file, then OUT.hull.csv when the format is csv).
# Trace v2 records each step's event and running perimeter and volume,
# no arena id; kind follows from k and perimeter from the running sum of
# k's steps, both checked on import.  The JSON is one document (meta with
# map_digest, records, hull, canonical code)
SAMPLES = {
    "json": (
        ("--alpha", "3/4", "--seed", "11", "--radius", "4"), 0,
        "155b8982015229fd7501af7588c0b512e42259a9d35e57477f778772bb8c475f",
    ),
    "csv": (
        ("--alpha", "3/4", "--seed", "11", "--radius", "4", "--format", "csv"), 0,
        "2e0ed465ac6415c501c7ecb475c86b991205954cdd24179c72f235428c44b109",
    ),
    "critical-json": (
        ("--kappa", "2/27", "--seed", "12", "--radius", "3"), 0,
        "d89226c19afbf22cbd71f43fc1a45a90409c434d38e9287c2f9a5c78dbcc8729",
    ),
    # the step budget stops the run before the requested depth
    "budget-json": (
        ("--alpha", "7/10", "--seed", "13", "--radius", "6", "--budget-steps", "60"), 3,
        "95696dacc90d87979ae6a823dcbcdc6aeafe9abab9e7bcfe75b149c8850d1da9",
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
