"""A candidate evaluation on positive finite data validates nothing.

Every search ratio is built once per (form, instance) and then evaluated
once per candidate.  Where v, w, the kernel and the candidate are all
positive and finite, a candidate pays for its arithmetic and for one
finiteness scan per derived vector, and never for an `ext` validation
(which `ext_pow` makes off its fast path, as `pows` does on an overflow).  The calls are counted through the
names `numerics`, `oracle` and `bridge` bind.  The batched search ratio
keeps to the same rule on a whole batch of candidates, and on such data
stays on its batched path.
"""

import math

import pytest

from kernelineq import ExponentPair, Instance, Kernel, WeightSeq, bridge, numerics, oracle
from kernelineq.batch import Grid
from kernelineq.bridge import _ContRatio
from kernelineq.kernels import SupSequenceKernel
from kernelineq.oracle import FORM_TABLE, _form_ratios

EXPONENTS = (0.5, 1.0, 2.0, math.inf)
L = 4


def _instance(p, q):
    # A sup-of-sequence kernel serves the U forms and the SB forms alike.
    u = WeightSeq(0, (0.5, 2.0, 1.0, 3.0))
    return Instance(ExponentPair(p, q), WeightSeq(0, (1.0, 0.5, 2.0, 3.0)),
                    WeightSeq(0, (2.0, 1.0, 0.5, 1.0)),
                    Kernel(SupSequenceKernel(u), 0, L))


def _candidates(dim):
    """A vertex, a search-grid point and a spread positive vector."""
    vertex = [1.0] + [0.0] * (dim - 1)
    grid = [1.0, 1e4] + [1e-4] * (dim - 2)
    spread = [10.0 ** (k % 5 - 2) * (1.0 + 0.25 * k) for k in range(dim)]
    return vertex, grid, spread


@pytest.fixture
def ext_calls(monkeypatch):
    calls = []
    real = numerics.ext

    def counting(x):
        calls.append(x)
        return real(x)
    for mod in (numerics, oracle, bridge):
        if hasattr(mod, "ext"):
            monkeypatch.setattr(mod, "ext", counting)
    return calls


def _assert_no_ext(build, dim, exponents, ext_calls):
    for p, q in exponents:
        ratio = build(_instance(p, q))
        ext_calls.clear()  # building may validate; the candidates may not
        for x in _candidates(dim):
            r = ratio(x)
            assert r is not None and 0.0 < r < math.inf, (p, q, x, r)
        assert not ext_calls, (p, q, len(ext_calls))


@pytest.mark.parametrize("form", FORM_TABLE)
def test_form_ratio_candidates_call_no_ext(form, ext_calls):
    # sigma_p, the weights of the sigma forms, needs 1 <= p < inf.
    ps = [p for p in EXPONENTS if 1.0 <= p < math.inf or not FORM_TABLE[form].sigma]
    _assert_no_ext(lambda inst: _form_ratios(form, inst)[0], L,
                   [(p, q) for p in ps for q in EXPONENTS], ext_calls)


@pytest.mark.parametrize("form", ["GOP_DUAL", "SUP_ITER"])
def test_bridge_ratio_candidates_call_no_ext(form, ext_calls):
    # The bridge needs 1 <= p.
    _assert_no_ext(lambda inst: _ContRatio(form, inst), 2 * L,
                   [(p, q) for p in EXPONENTS if p >= 1.0 for q in EXPONENTS],
                   ext_calls)


@pytest.mark.parametrize("form", FORM_TABLE)
def test_batched_ratio_candidates_call_no_ext(form, ext_calls, monkeypatch):
    fallbacks = []
    monkeypatch.setattr(oracle, "per_candidate",
                        lambda ratio: lambda grid: fallbacks.append(grid) or [])
    ps = [p for p in EXPONENTS if 1.0 <= p < math.inf or not FORM_TABLE[form].sigma]
    # Each candidate as a one-point grid on itself, two coordinates of the
    # spread vector running over its values and the grid point's, and a
    # support grid on the vertex.
    vertex, point, spread = _candidates(L)
    grids = [Grid(x, (1,), ([x[1]],)) for x in (vertex, point, spread)]
    grids.append(Grid(spread, (1, L - 1), ([point[1], spread[1]],
                                           [point[-1], spread[-1]])))
    grids.append(Grid(vertex, (2,), ([1e-4, 1.0, 1e4],)))
    for p in ps:
        for q in EXPONENTS:
            batch = _form_ratios(form, _instance(p, q)).batch
            ext_calls.clear()
            for g in grids:
                rs = batch(g)
                assert all(r is not None and 0.0 < r < math.inf for r in rs), (p, q, rs)
            assert not ext_calls, (p, q, len(ext_calls))
    assert not fallbacks
