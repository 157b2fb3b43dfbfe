"""The benchmark's own tests: its references and its metric names.

    python3 -m pytest perfbench -q
"""

import json
import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import cases  # noqa: E402
import oracles as orc  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


@pytest.mark.parametrize("a", [0.25, 0.125, 0.0625])
def test_reference_quadrature_gaussian_moments(a):
    pts, w = orc.tail_rule([a], 12)
    assert math.isclose(float(np.sum(w)), 1.0, rel_tol=1e-14)
    assert math.isclose(float(np.sum(w * pts[:, 0] ** 2)), a ** 2, rel_tol=1e-13)
    assert math.isclose(float(np.sum(w * pts[:, 0] ** 4)), 3 * a ** 4, rel_tol=1e-13)
    assert abs(float(np.sum(w * pts[:, 0] ** 3))) < 1e-16
    assert orc.gaussian_even_moment(a, 4) == pytest.approx(3 * a ** 4, rel=1e-15)


def test_reference_quadrature_tensor_product():
    pts, w = orc.tail_rule([0.125, 0.0625], 8)
    got = float(np.sum(w * pts[:, 0] ** 2 * pts[:, 1] ** 4))
    assert got == pytest.approx(0.125 ** 2 * 3 * 0.0625 ** 4, rel=1e-13)


def test_own_evaluator_closed_forms():
    one = orc.BumpPoly(((1.0, (0, 0)),), 1, 0.8)
    assert one(np.zeros((1, 2)))[0] == pytest.approx(math.exp(-1.0), rel=1e-15)
    assert one(np.array([[0.8, 0.0], [0.5, 0.7]])).tolist() == [0.0, 0.0]
    xb = orc.BumpPoly(((2.0, (1, 0, 0, 0)), (-0.5, (0, 2, 0, 1))), 2, 0.8)
    p = np.array([[0.3, -0.2, 0.1, 0.4]])
    t = float(np.sum(p ** 2)) / 0.64
    want = (2.0 * 0.3 - 0.5 * 0.04 * 0.4) * math.exp(-1.0 / (1.0 - t * t))
    assert xb(p)[0] == pytest.approx(want, rel=1e-14)
    assert xb.expr() == "((2.0)*x(1)+(-0.5)*y(1)^2*y(2))*bump((x(1)^2+y(1)^2+x(2)^2+y(2)^2)/0.6400000000000001)"


def test_own_dbar_matches_closed_form():
    # dbar_1 of x1^2 y1 is (2 x1 y1 + i x1^2) / 2
    fn = lambda q: q[:, 0] ** 2 * q[:, 1]
    p = np.array([[0.3, -0.7], [1.1, 0.4]])
    want = 0.5 * (2 * p[:, 0] * p[:, 1] + 1j * p[:, 0] ** 2)
    assert np.allclose(orc.dbar_fd(fn, p, 1), want, rtol=0, atol=1e-9)


def test_metric_and_workload_names_match_benchmark_json():
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == \
        [tuple(m) for m in run.END_TO_END]
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == \
        [tuple(m) for m in spans.PER_LAYER]
    names = [w["name"] for w in bench["workloads"]]
    assert names == list(run.WORKLOADS) == list(cases.WORKLOADS)
    slots = sum(1 for name, _ in run.END_TO_END if name.startswith("kind"))
    assert all(len(w.kinds) == slots for w in cases.WORKLOADS.values())
