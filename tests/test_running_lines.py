"""The running path of the form evaluator against its lines path.

On a kernel constant along rows (a constant or row kernel, or a power of
one) the inner terms of a forward record are one running reduction over
the kernel's diagonal, and on a constant kernel those of a backward max
record too (`oracle._diagonal`).  Each such kernel is compared with its
twin, a `TabulatedKernel` with the same entries (raised to the same power
where it is a power), which takes the lines path: every FORM_TABLE record
at p, q in {0.5, 1, 2, 3, inf} on test sequences with zero, subnormal and
1e300 entries, every applicable A/D/calA constant and the monotonicity
report, by `repr`.  The kernels have entries of both zero signs, 1e300
entries whose powers overflow, and subnormals.

The cost is pinned by counting products: the inner terms of a running
record take L of them per evaluation, those of the lines path L(L+1)/2.
"""

import dataclasses
import math

import pytest

from kernelineq import (ExponentPair, Instance, Kernel, TestSequence, WeightSeq,
                        functional_lhs, oracle, tabulated_kernel)
from kernelineq.kernels import (ConstantKernel, PowerKernel, RowSequenceKernel,
                                SupSequenceKernel, TabulatedKernel)
from kernelineq.oracle import FORM_TABLE

from conftest import applicable_constants

INF = math.inf
L = 5
EXPONENTS = (0.5, 1.0, 2.0, 3.0, INF)
U = (0.0, -0.0, 5e-324, 1e300, 2.0)

# Each kernel constant along rows by name; the powers of 1e300 overflow.
SPECS = {f"constant {c!r}": ConstantKernel(c) for c in (1.5, 0.0, -0.0, 1e300, 5e-324)}
SPECS.update({f"row {k}": RowSequenceKernel(WeightSeq(0, U[k:] + U[:k]))
              for k in (0, 2)})
SPECS.update({f"{name} ^ {r}": PowerKernel(spec, r) for name, spec in list(SPECS.items())
              for r in (2.0, 0.5)})

SEQUENCES = [(0.0,) * L, (1.0, 0.0, 5e-324, 1e300, 2.0), (1e300,) * L,
             (5e-324, -0.0, 3.0, 0.0, 1e-310), (0.25, 4.0, 1.0, 1e300, 0.0)]


def twin_spec(spec, kern: Kernel):
    """The tabulated twin of a spec: its entries, or its base's raised to
    the same power."""
    if isinstance(spec, PowerKernel):
        return PowerKernel(twin_spec(spec.base, Kernel(spec.base, 0, L)), spec.r)
    rows = [[kern.eval(i, n) for n in range(i, L)] for i in range(L)]
    return TabulatedKernel(0, tuple(map(tuple, rows)))


def instances(p, q, spec):
    v = WeightSeq(0, (1.0, 2.0, 0.5, 1.0, 0.0))
    w = WeightSeq(0, (1.0, 0.5, 0.0, 2.0, 3.0))
    kern = Kernel(spec, 0, L)
    twin = Kernel(twin_spec(spec, kern), 0, L)
    e = ExponentPair(p, q)
    return Instance(e, v, w, kern), Instance(e, v, w, twin)


def inner_terms(form, inst, a):
    """The inner terms of one evaluation, as the evaluator hands them to
    its last steps (`oracle._finish`)."""
    seen = []
    real = oracle._finish

    def spy(f, inst):
        finish = real(f, inst)
        return lambda inners: seen.append(list(inners)) or finish(inners)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(oracle, "_finish", spy)
        oracle._evaluator(form, inst)(list(a))
    assert len(seen) == 1
    return repr(seen[0])


def outcome(fn, *args):
    try:
        return repr(fn(*args))
    except (ValueError, OverflowError) as exc:
        return f"{type(exc).__name__}: {exc}"


# The record of every SB record with the instance kernel in its place.
U_RECORDS = {f: name for name, f in FORM_TABLE.items() if f.kernel == "U"}


@pytest.mark.parametrize("q", EXPONENTS)
@pytest.mark.parametrize("p", EXPONENTS)
def test_records_constants_and_report_equal_the_lines_path(p, q):
    for name, spec in SPECS.items():
        inst, twin = instances(p, q, spec)
        assert inst.kernel.rows_constant and not twin.kernel.rows_constant
        assert repr(twin.kernel.columns) == repr(inst.kernel.columns), name
        for form, f in FORM_TABLE.items():
            if f.kernel == "U":
                for a in SEQUENCES:
                    # Forward, every inner term is the lines path's float, the
                    # sign of a zero included.
                    if f.forward:
                        assert (inner_terms(form, inst, a)
                                == inner_terms(form, twin, a)), (name, form, a)
                    a = TestSequence(0, a)
                    assert (outcome(functional_lhs, form, inst, a)
                            == outcome(functional_lhs, form, twin, a)), (name, form, a)
        assert repr(applicable_constants(inst)) == repr(applicable_constants(twin)), name
        assert (repr(inst.kernel.monotonicity_check())
                == repr(twin.kernel.monotonicity_check())), name


@pytest.mark.parametrize("q", EXPONENTS)
@pytest.mark.parametrize("p", EXPONENTS)
@pytest.mark.parametrize("kind", [RowSequenceKernel, SupSequenceKernel])
def test_sb_records_equal_their_instance_kernel_records(kind, p, q):
    """An SB record reads the row or sup kernel of u; its twin is the
    record with the instance kernel, on the tabulated row or sup kernel."""
    u = WeightSeq(0, U[1:] + U[:1])
    e, v = ExponentPair(p, q), WeightSeq(0, (1.0, 2.0, 0.5, 1.0, 0.0))
    inst = Instance(e, v, v, Kernel(kind(u), 0, L))
    for form, f in FORM_TABLE.items():
        if f.kernel != "U":
            built = Kernel(RowSequenceKernel(u) if f.kernel == "row"
                           else SupSequenceKernel(u), 0, L)
            twin = Instance(e, v, v, Kernel(twin_spec(built.spec, built), 0, L))
            twin_form = U_RECORDS[dataclasses.replace(f, kernel="U")]
            for a in SEQUENCES:
                a = TestSequence(0, a)
                assert (outcome(functional_lhs, form, inst, a)
                        == outcome(functional_lhs, twin_form, twin, a)), (form, a)


def _inner_products(monkeypatch, form, inst):
    """The products the inner terms of one evaluation take: the first of
    the two multiplications (`numerics.mul_for`) it picks, the second being
    the outer norm's."""
    counts = []
    real = oracle.mul_for

    def counted(*seqs, rest_finite=True):
        mul = real(*seqs, rest_finite=rest_finite)
        counts.append(0)
        k = len(counts) - 1

        def product(x, y):
            counts[k] += 1
            return mul(x, y)
        return product
    monkeypatch.setattr(oracle, "mul_for", counted)
    lhs = oracle._evaluator(form, inst)
    lhs([0.5, 1.0, 0.0, 2.0, 3.0] + [1.0] * (inst.length - L))
    assert len(counts) == 2 and counts[1] == inst.length, form
    return counts[0]


@pytest.mark.parametrize("p, q", [(2.0, 3.0), (1.0, INF), (INF, 2.0), (INF, INF)])
def test_the_running_path_takes_one_product_per_index(monkeypatch, p, q):
    for length in (5, 12):
        e, v = ExponentPair(p, q), WeightSeq(0, tuple(1.0 + k for k in range(length)))
        u = WeightSeq(0, tuple(0.5 * k for k in range(length)))
        kernels = {"constant": Kernel(ConstantKernel(2.0), 0, length),
                   "row": Kernel(RowSequenceKernel(u), 0, length),
                   "tabulated": tabulated_kernel([[1.0] * (length - i) for i in range(length)],
                                                 0, length)}
        triangle = length * (length + 1) // 2
        for kind, kern in kernels.items():
            inst = Instance(e, v, v, kern)
            for form, f in FORM_TABLE.items():
                if f.kernel != "U":
                    continue
                g = oracle._form_record(form, inst)
                running = (kind != "tabulated"
                           and (g.forward or kind == "constant" and g.reduce == "max"))
                want = length if running else triangle
                assert _inner_products(monkeypatch, form, inst) == want, (kind, form)
