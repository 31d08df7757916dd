"""Library output versus the pinned oracle-generated golden CSVs."""

import csv
import os

import numpy as np
import pytest

import make_golden
from weaklind import (
    SIGMA_MINUS,
    Dissipator,
    NonMarkovJC,
    WeakMeasurementSetup,
    jy_six_level,
    pauli,
    pure_density,
    sodium_jump_operators,
    trace_over_tau,
)

pytestmark = pytest.mark.pinned

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def load_golden(name):
    with open(os.path.join(GOLDEN, name), newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = np.array([[float(x) for x in row] for row in reader])
    assert header == ["gamma_tau", "re_wv", "im_wv", "postselect_prob"]
    return rows


def check_trace(rows, setup, dissipator, char_rate, tol):
    taus = rows[:, 0] / char_rate
    trace = trace_over_tau(setup, dissipator, taus)
    assert not trace.gaps
    wv = np.array(trace.values)
    got = np.column_stack([wv.real, wv.imag, np.array(trace.postselection_probs)])
    assert np.abs(got - rows[:, 1:]).max() < tol


def sodium_setup(post_amps):
    d = Dissipator(sodium_jump_operators(), [1.0] * 3)
    setup = WeakMeasurementSetup(
        sigma_i=pure_density(make_golden.ALKALI_PRE),
        sigma_fI=pure_density(post_amps),
        A_SI=jy_six_level(),
    )
    return setup, d


def test_sodium_anomalous_matches_golden():
    setup, d = sodium_setup(make_golden.ALKALI_POST_ANOMALOUS)
    check_trace(load_golden("sodium_anomalous.csv"), setup, d, 1.0, 1e-9)


def test_sodium_constant_matches_golden():
    setup, d = sodium_setup(make_golden.ALKALI_POST_CONSTANT)
    check_trace(load_golden("sodium_constant.csv"), setup, d, 1.0, 1e-9)


def test_twolevel_damping_matches_golden():
    gamma = 0.25
    d = Dissipator([SIGMA_MINUS], [gamma])
    setup = WeakMeasurementSetup(
        sigma_i=np.array([[0.55, 0.15 - 0.2j], [0.15 + 0.2j, 0.45]]),
        sigma_fI=np.array([[0.8, 0.1 - 0.25j], [0.1 + 0.25j, 0.2]]),
        A_SI=np.array([[0.25, 1.0], [1.0, -0.25]]),
    )
    check_trace(load_golden("twolevel_damping.csv"), setup, d, gamma, 1e-9)


def test_nonmarkov_strong_matches_golden():
    # strong coupling: the rate pole sits inside the tau range
    d = NonMarkovJC(gamma0=1.0, lam=0.5)
    setup = WeakMeasurementSetup(
        sigma_i=pure_density([0.6, 0.8]),
        sigma_fI=np.array([[0.65, 0.15 + 0.15j], [0.15 - 0.15j, 0.35]]),
        A_SI=pauli("x"),
    )
    check_trace(load_golden("nonmarkov_strong.csv"), setup, d, 1.0, 1e-7)


@pytest.mark.parametrize("name,builder", [
    ("sodium_anomalous.csv",
     lambda: make_golden.sodium_rows(make_golden.ALKALI_POST_ANOMALOUS,
                                     np.linspace(0.0, 10.0, 41))),
    ("twolevel_damping.csv", make_golden.twolevel_rows),
    ("nonmarkov_strong.csv", make_golden.nonmarkov_rows),
])
def test_generator_reproduces_pinned_files(name, builder):
    # guards against the generator script drifting away from the pinned data
    pinned = load_golden(name)
    fresh = np.array([[gt, wv.real, wv.imag, prob] for gt, wv, prob in builder()])
    assert np.abs(fresh - pinned).max() < 1e-12
