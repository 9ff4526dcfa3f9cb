"""Bradley's upper bound on the Hardy kernels: every GOP_DUAL estimate is
at most k(p, q) A_7, where

    k(p, q) = (1 + q/p')^(1/q) (1 + p'/q)^(1/p'),  1 < p <= q < inf,

2 at p = q = 2 (J. S. Bradley, "Hardy inequalities with mixed norms",
Canad. Math. Bull. 21, 1978; Maz'ya, Sobolev Spaces, 1.3).  The bound
does not come from the code, so it catches a search, or an A_7, that
reads too high.

The theorem.  For weights W, V >= 0 on (0, inf) and f >= 0, F(x) the
integral of f over (0, x):

    (int F^q W)^(1/q) <= C (int f^p V)^(1/p),
    A = sup_{r > 0} (int_r^inf W)^(1/q) (int_0^r V^(1-p'))^(1/p'),

and the best C satisfies A <= C <= k A.

The embedding.  Take the Hardy kernel U = 1 on the window 0..L-1 (shift
it there), v > 0 and w >= 0.  GOP_DUAL's ratio at a >= 0 is

    (sum_n w_n (sum_{i <= n} a_i)^q)^(1/q) / (sum_i v_i a_i^p)^(1/p).

Let f = a_i and V = v_i on [i, i + 1), f = 0 and V = 1 past L.  Then
F(n + 1) = sum_{i <= n} a_i and int f^p V = sum_i v_i a_i^p.  For
0 < eps < 1 let W = w_n / eps on [n + 1, n + 1 + eps), mass w_n.  F is
nondecreasing, so int F^q W >= sum_n w_n F(n + 1)^q: the continuous
ratio at f is at least the discrete one at a, so the discrete best
constant C_d is at most the continuous one, and C_d <= k A_eps.

A_eps tends to A_7.  Write W_n = sum_{m >= n} w_m and H_n =
sum_{i <= n} v_i^(1-p') (H_(-1) = 0, W_(-1) = W_0), and take
n < r <= n + 1, 0 <= n <= L.  On n + eps <= r <= n + 1 the mass right
of r is W_n and the head int_0^r V^(1-p') is at most H_n, with equality
at r = n + 1 (for n < L): the sup there is W_n^(1/q) H_n^(1/p'), the
term of A_7 at n (0 at n = L).  On n < r < n + eps the mass is at most
W_(n-1) and the head at most H_(n-1) + eps V(n)^(1-p'), so the product
is at most W_(n-1)^(1/q) (H_(n-1) + eps V(n)^(1-p'))^(1/p'), which tends
to the term of A_7 at n - 1 (to 0 at n = 0).  For r <= 0 the head is 0.
So A_7 <= A_eps <= A_7 + o(1), and C_d <= k A_7.

The reductions.  A constant kernel c scales the ratio and A_7 by c.  A
row kernel U(i, n) = u_i with u > 0 is U = 1 at b_i = u_i a_i:
sum_{i <= n} u_i a_i = sum_{i <= n} b_i and v_i a_i^p =
(v_i u_i^(-p)) b_i^p, so its best constant is that of U = 1 with v
replaced by v u^(-p).  A_7 follows the same substitution, since
(v_i u_i^(-p))^(1-p') = v_i^(1-p') u_i^(-p(1-p')) = v_i^(1-p') u_i^p'
(p (p' - 1) = p').  A search estimate is the ratio at a witness, at
most C_d; the tests allow 1e-12 relative for the rounding of A_7 and of
the ratio.
"""

import math
import random

import pytest

from kernelineq import (ExponentPair, Instance, Kernel, TestSequence, WeightSeq,
                        best_constant, condition_A, constant_kernel, functional_lhs,
                        rhs_norm)
from kernelineq.kernels import RowSequenceKernel
from kernelineq.numerics import conjugate

STRATEGIES = ("auto", "vertex", "support_grid", "multistart_ascent")
PAIRS = [(p, q) for p in (1.25, 1.5, 2.0, 3.0) for q in (1.25, 1.5, 2.0, 3.0, 4.5)
         if p <= q]


def bradley(p: float, q: float) -> float:
    """k(p, q), Bradley's factor between A and the best constant."""
    pc = conjugate(p)
    return (1.0 + q / pc) ** (1.0 / q) * (1.0 + pc / q) ** (1.0 / pc)


def _instance(rng: random.Random, kind: str, p: float, q: float) -> Instance:
    """A seeded window of length 2-12 with v > 0, w >= 0 (zeros among it)
    and a constant kernel c > 0 or a row kernel u > 0."""
    L = rng.randint(2, 12)
    ent = lambda: 10.0 ** rng.uniform(-2.0, 2.0)
    v = WeightSeq(0, tuple(ent() for _ in range(L)))
    w = WeightSeq(0, tuple(0.0 if rng.random() < 0.2 else ent() for _ in range(L)))
    if kind == "constant":
        kernel = constant_kernel(10.0 ** rng.uniform(-1.0, 1.0), 0, L)
    else:
        u = WeightSeq(0, tuple(10.0 ** rng.uniform(-1.0, 1.0) for _ in range(L)))
        kernel = Kernel(RowSequenceKernel(u), 0, L)
    return Instance(ExponentPair(p, q), v, w, kernel)


def test_bradley_factor():
    assert bradley(2.0, 2.0) == pytest.approx(2.0, rel=1e-15)
    # k(p, p) = p^(1/p) p'^(1/p').
    assert bradley(3.0, 3.0) == pytest.approx(3.0 ** (1 / 3) * 1.5 ** (2 / 3), rel=1e-15)


@pytest.mark.parametrize("kind", ["constant", "row"])
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_every_estimate_is_at_most_k_times_a7(kind, strategy):
    rng = random.Random(2501 + STRATEGIES.index(strategy) + 10 * (kind == "row"))
    largest = 0.0
    for p, q in PAIRS:
        for _ in range(3):
            inst = _instance(rng, kind, p, q)
            bound = bradley(p, q) * condition_A(7, inst)
            res = best_constant("GOP_DUAL", inst, strategy, 300, rng.randrange(100))
            assert res.estimate <= bound * (1.0 + 1e-12), (inst, strategy, res)
            largest = max(largest, res.estimate / bound)
    # Not a vacuous bound: the estimates reach a fair share of it (and A_7
    # is itself a lower bound on the best constant, 1/k of the bound).
    assert largest > 0.5, largest


def test_a_row_kernel_is_the_hardy_kernel_on_v_times_u_to_the_minus_p():
    rng = random.Random(2502)
    for p, q in PAIRS:
        inst = _instance(rng, "row", p, q)
        u = inst.kernel.spec.u.values
        v = WeightSeq(0, tuple(vi * ui ** -p for vi, ui in zip(inst.v.values, u)))
        hardy = Instance(inst.exponents, v, inst.w, constant_kernel(1.0, 0, len(u)))
        assert math.isclose(condition_A(7, inst), condition_A(7, hardy), rel_tol=1e-12)
        a = [rng.choice((0.0, 10.0 ** rng.uniform(-2.0, 2.0))) for _ in u]
        a[rng.randrange(len(u))] = 1.0
        b = [ai * ui for ai, ui in zip(a, u)]

        def ratio(at, bs):
            seq = TestSequence(0, tuple(bs))
            return functional_lhs("GOP_DUAL", at, seq) / rhs_norm(at, seq)
        assert math.isclose(ratio(inst, a), ratio(hardy, b), rel_tol=1e-12)
