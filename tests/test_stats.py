"""Statistics helpers: the t interval, and scipy kept out of the import."""

import subprocess
import sys
from pathlib import Path

import numpy as np
from scipy import stats as sps

from tripeel.stats import mean_ci

SRC = Path(__file__).resolve().parent.parent / "src"


def test_import_leaves_scipy_stats_unloaded():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import tripeel; "
        "print('scipy.stats' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-c", code, str(SRC)],
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "False"


def test_mean_ci_uses_the_student_t_quantile():
    xs = np.linspace(0.0, 1.0, 7) ** 2
    ci = mean_ci(xs)
    assert ci["level"] == 0.99
    half = float(sps.t.ppf(0.5 + 0.99 / 2, xs.size - 1)) * ci["se"]
    assert ci["high"] == ci["mean"] + half
    assert ci["low"] == ci["mean"] - half
