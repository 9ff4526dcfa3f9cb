"""`bridge._quad_cell`, the one cell integral of calA_12/calA_13 at 1 < p,
against mpmath at 50 digits, and the package's freedom from scipy.

The oracle integrates the scaled integrand, whose factors lie in [0, 2],
over [0, 1] split into pieces (mpmath's own rule on raw magnitudes near
1e-99 was off by up to 1e-4), then applies K m1^E m2^F.  F is E/pc as a
double, the exponent `_quad_cell` integrates with: the rounding of E/pc
itself moves a value with m2 = 1e300 by up to 1e-13, which is the
caller's data, not the rule's error.
"""

import functools
import itertools
import math
import os
import random
import subprocess
import sys

import pytest

import kernelineq
from kernelineq.bridge import _quad_cell

mpmath = pytest.importorskip("mpmath")
mp = mpmath.mp.clone()
mp.dps = 50

TINY, HUGE = sys.float_info.min, sys.float_info.max
# Zero, subnormals, 1e+-300 and 1e+-6 endpoints, and the float max.
ENDS = (0.0, 5e-324, 1e-310, 1e-300, 1e-6, 0.3, 1.0, 3.0, 1e6, 1e300, 1.7e308)
KS = (1e-300, 1e-6, 1.0, 1e6, 1e300)
# q < p: E = q/(p - q) from 0.11 (p = 5, q = 0.5) to 4 (p = 5, q = 4).
PQ = [(p, q) for p in (1.5, 2.0, 3.0, 5.0) for q in (0.5, 1.0, 1.5, 2.0, 4.0)
      if q < p]


@functools.lru_cache(maxsize=None)
def _integral(a, b, A, c, E, F, pieces):
    """The scaled integral at 50 digits; many cells share one."""
    return mp.quad(lambda s: (a + b * (1 - s)) ** E * (A + c * s) ** F,
                   mpmath.linspace(0, 1, pieces + 1))


def _scaled(lin_a, lin_b, E, sig_A, sig_a, pc, pieces=4):
    """m1^E m2^F times the scaled integral (both maxima positive and
    finite): the cell is K times this."""
    F = mp.mpf(E / pc)
    m1, m2 = max(lin_a, lin_b), max(sig_A, sig_a)
    val = _integral(mp.mpf(lin_a) / m1, mp.mpf(lin_b) / m1, mp.mpf(sig_A) / m2,
                    mp.mpf(sig_a) / m2, E, F, pieces)
    return mp.mpf(m1) ** E * mp.mpf(m2) ** F * val


def _assert_close(got, want, rel=1e-14):
    """rel where the true value is a normal double; else the double
    nearest to it (to one subnormal ulp), 0 or inf."""
    if TINY <= want <= HUGE:
        assert abs(got - want) <= rel * want, (got, want)
    elif want > HUGE:
        assert got == math.inf, (got, want)
    else:
        assert abs(got - float(want)) <= 5e-324, (got, want)


def _cells(rng, count):
    """Random cells over ENDS with both maxima positive and finite."""
    out = []
    while len(out) < count:
        lin_a, lin_b, sig_A, sig_a = (rng.choice(ENDS) for _ in range(4))
        if 0 < max(lin_a, lin_b) < math.inf and max(sig_A, sig_a) > 0:
            out.append((lin_a, lin_b, sig_A, sig_a))
    return out


@pytest.mark.parametrize("p, q", PQ)
def test_random_cells_match_mpmath(p, q):
    rng = random.Random(f"{p}-{q}")
    E, pc = q / (p - q), p / (p - 1.0)
    for lin_a, lin_b, sig_A, sig_a in _cells(rng, 3):
        cell = _scaled(lin_a, lin_b, E, sig_A, sig_a, pc)
        for K in KS:
            _assert_close(_quad_cell(K, lin_a, lin_b, E, sig_A, sig_a, pc),
                          K * cell)


@pytest.mark.parametrize("lin_a, sig_A", [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0)])
@pytest.mark.parametrize("p, q", [(1.5, 1.0), (2.0, 0.5), (5.0, 3.0)])
def test_vanishing_endpoint_factors(lin_a, sig_A, p, q):
    # Every calA_12/13 has such cells: sigma's head is 0 on the first
    # cell, and for calA_12 the w tail is 0 on the last.
    E, pc = q / (p - q), p / (p - 1.0)
    cell = _scaled(lin_a, 2.0, E, sig_A, 0.5, pc)
    for K in KS:
        _assert_close(_quad_cell(K, lin_a, 2.0, E, sig_A, 0.5, pc), K * cell)


@pytest.mark.parametrize("lin_b, sig_A", itertools.product(
    (5e-324, 1e-310, 1e-300, 1e-160, 1e300, 1.7e308), (1e-300, 1e300, 1.7e308)))
def test_extreme_scales(lin_b, sig_A):
    # Where m1^E or m2^F leaves the normal range the scales are applied
    # in 40-digit decimal arithmetic.  At lin_b = 1e-160, m1^E = 1e-320 is
    # subnormal and keeps 10 bits: a plain product through it is off by
    # up to 5e-4 relative against sig_A = 1e300.
    E, pc = 2.0, 2.0
    cell = _scaled(0.0, lin_b, E, sig_A, 1.0, pc)
    for K in KS:
        _assert_close(_quad_cell(K, 0.0, lin_b, E, sig_A, 1.0, pc), K * cell)


@pytest.mark.parametrize("q, pieces", [(1.9, 4), (1.95, 8), (1.99, 48)])
def test_exponents_near_p(q, pieces):
    # q near p = 2 gives E = 19, 39 and 199: the integrand peaks inside
    # (0, 1), and the rule is applied on 1, 2 and 4 equal pieces.  Nodes
    # and bases carry roundings of order eps, which the powers multiply
    # by E and F.
    E, pc = q / (2.0 - q), 2.0
    rel = max(1e-14, 2 * (E + E / pc) * sys.float_info.epsilon)
    for lin_a, lin_b, sig_A, sig_a in [(0.0, 1.0, 0.3, 3.0), (3.0, 0.3, 0.0, 1.0)]:
        _assert_close(_quad_cell(1.0, lin_a, lin_b, E, sig_A, sig_a, pc),
                      _scaled(lin_a, lin_b, E, sig_A, sig_a, pc, pieces), rel)


def test_exact_branches():
    E, pc = 1.0, 2.0
    assert _quad_cell(1.0, 0.0, 0.0, E, 1.0, 1.0, pc) == 0.0
    assert _quad_cell(1.0, 1.0, 1.0, E, 0.0, 0.0, pc) == 0.0
    assert _quad_cell(math.inf, 0.0, 0.0, E, 1.0, 1.0, pc) == 0.0
    assert _quad_cell(1.0, math.inf, 1.0, E, 0.0, 1.0, pc) == math.inf
    assert _quad_cell(1e-300, 1.0, 1.0, E, 1.0, math.inf, pc) == math.inf
    assert _quad_cell(1e-300, 1.0, 0.0, E, math.inf, 1.0, pc) == math.inf
    assert _quad_cell(1.0, 0.0, 0.0, E, math.inf, 1.0, pc) == 0.0
    assert _quad_cell(math.inf, 1.0, 1.0, E, 1.0, 1.0, pc) == math.inf


def test_bridge_runs_without_scipy():
    code = """
import sys
from kernelineq import (ExponentPair, Instance, WeightSeq, bridge_check,
                        constant_kernel, continuous_constant)
w = WeightSeq(0, (1.0, 2.0, 0.5))
inst = Instance(ExponentPair(2.0, 1.0), w, w, constant_kernel(1.0, 0, 3))
for name in ("calA_12", "calA_13"):
    assert continuous_constant(name, inst) > 0
bridge_check(inst, "GOP_DUAL", 50, 0)
assert "scipy" not in sys.modules, "scipy was imported"
"""
    src = os.path.dirname(os.path.dirname(kernelineq.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, env=env)
    assert done.returncode == 0, done.stderr
