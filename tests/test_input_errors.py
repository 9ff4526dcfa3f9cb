"""Every input check that some input can reach, reached: the document
checks of `cli.parse_instance` and `kernels` through `run_command` (exit
2, the field named on stderr), and the library checks by their error.
"""

import json
import math

import pytest

from kernelineq import (ConstantKernel, ExponentPair, Instance, Kernel, PowerKernel,
                        RowSequenceKernel, StepFunction, SupSequenceKernel,
                        TabulatedKernel, TestSequence, WeightSeq,
                        condition_A, condition_D, conjugate, constant_kernel,
                        continuous_constant, covering_sequence, dyadic_covering,
                        equivalence_suite, functional_lhs, l24_decompose,
                        lemma_decompose, scaling_pair, weighted_sum_bounds)
from kernelineq.cli import parse_instance, run_command
from kernelineq.kernels import (InstanceError, doc_number, doc_weight, kernel_doc,
                                kernel_spec)

MINIMAL = {
    "window": {"start": 0, "length": 2},
    "p": 1, "q": 1,
    "v": [1, 1], "w": [1, 1],
    "kernel": {"type": "constant", "c": 1},
}


def _document(**fields):
    doc = dict(MINIMAL, **fields)
    return {k: v for k, v in doc.items() if v is not None}


@pytest.mark.parametrize("doc, field", [
    ([1, 2], "<document>"),
    ("instance", "<document>"),
    (_document(window=5), "window"),
    (_document(window=None), "window"),
    (_document(window={"start": 0.5, "length": 2}), "window.start"),
    (_document(window={"start": True, "length": 2}), "window.start"),
    (_document(window={"length": 2}), "window.start"),
    (_document(window={"start": 0, "length": 0}), "window.length"),
    (_document(window={"start": 0, "length": 2.0}), "window.length"),
    (_document(p=0), "p"),
    (_document(q=0), "q"),
    (_document(p=0, q=0), "p"),
    (_document(v="1, 1"), "v"),
    (_document(kernel={"c": 1}), "kernel"),
    (_document(kernel=[1]), "kernel"),
    (_document(kernel={"type": "tabulated", "entries": [[1, 1]]}), "kernel.entries"),
    (_document(kernel={"type": "power", "r": 2, "base": {"type": "sup"}}),
     "kernel.base.u"),
])
def test_document_errors_exit_2_naming_the_field(tmp_path, capsys, doc, field):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(doc))
    assert run_command(["characterize", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"field {field!r}:" in captured.err


# The chain check runs on a three-index regular kernel only: a two-index
# window and a kernel that is not regular skip it.
CHAIN_DOCS = [
    _document(window={"start": 0, "length": 3}, v=[1, 1, 1], w=[1, 1, 1]),
    MINIMAL,
    _document(window={"start": 0, "length": 3}, v=[1, 1, 1], w=[1, 1, 1],
              kernel={"type": "tabulated", "entries": [[0, 0, 1], [0, 0], [0]]}),
]


@pytest.mark.parametrize("doc", CHAIN_DOCS)
@pytest.mark.parametrize("argv, match", [
    (["--max-len", "-4"], "max_len must lie"),
    (["--max-len", "1"], "max_len must lie"),
    (["--max-len", "50"], "max_len must lie"),
    (["--alpha", "0"], "alpha must lie"),
    (["--alpha", "1.5"], "alpha must lie"),
    (["--c", "0"], "c must be positive"),
])
def test_chain_arguments_exit_2_where_the_check_is_skipped_too(
        tmp_path, capsys, doc, argv, match):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(doc))
    assert run_command(["check-kernel", str(path)] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert match in captured.err
    # The smallest chain length is valid on every window of two or more.
    assert (run_command(["check-kernel", str(path), "--max-len", "2"])
            == run_command(["check-kernel", str(path)]) != 2)


def _instance(p=1.0, q=1.0, length=2):
    ones = WeightSeq(0, (1.0,) * length)
    return Instance(ExponentPair(p, q), ones, ones, constant_kernel(1.0, 0, length))


@pytest.mark.parametrize("build, error, match", [
    (lambda: Kernel(ConstantKernel(-1.0), 0, 2), ValueError, "constant kernel value"),
    (lambda: Kernel(ConstantKernel(math.inf), 0, 2), ValueError, "constant kernel value"),
    (lambda: Kernel(ConstantKernel(math.nan), 0, 2), ValueError, "constant kernel value"),
    (lambda: Kernel(TabulatedKernel(1, ((1.0, 1.0), (1.0,))), 0, 2), ValueError,
     "tabulated kernel does not match"),
    (lambda: Kernel(TabulatedKernel(0, ((1.0,),)), 0, 2), ValueError,
     "tabulated kernel does not match"),
    (lambda: Kernel(SupSequenceKernel(WeightSeq(0, (1.0,))), 0, 2), ValueError,
     "kernel sequence does not match"),
    (lambda: Kernel(SupSequenceKernel(WeightSeq(1, (1.0, 1.0))), 0, 2), ValueError,
     "kernel sequence does not match"),
    (lambda: Kernel("constant", 0, 2), TypeError, "unknown kernel spec"),
    (lambda: Kernel(ConstantKernel(1.0), 0, 0), ValueError, "at least one index"),
    (lambda: constant_kernel(1.0, 0, 3).chain_alpha_check(0.0, 1.0, 3), ValueError,
     "alpha"),
    (lambda: constant_kernel(1.0, 0, 3).chain_alpha_check(1.5, 1.0, 3), ValueError,
     "alpha"),
    (lambda: kernel_doc("constant"), TypeError, "unknown kernel spec"),
    (lambda: Instance(ExponentPair(1.0, 1.0), WeightSeq(0, (1.0, 1.0)),
                      WeightSeq(1, (1.0, 1.0)), constant_kernel(1.0, 0, 2)),
     ValueError, "share the window"),
    (lambda: Instance(ExponentPair(1.0, 1.0), WeightSeq(0, (1.0, 1.0)),
                      WeightSeq(0, (1.0, 1.0)), constant_kernel(1.0, 0, 3)),
     ValueError, "share the window"),
    (lambda: covering_sequence(WeightSeq(0, (1.0, 2.0)), 2.0).index(100), IndexError,
     "k out of range"),
    (lambda: covering_sequence(WeightSeq(0, (1.0, 2.0)), 2.0).index(-100), IndexError,
     "k out of range"),
    (lambda: weighted_sum_bounds(WeightSeq(0, (1.0, 2.0)), TestSequence(1, (1.0, 2.0)),
                                 covering_sequence(WeightSeq(0, (1.0, 2.0)), 2.0)),
     ValueError, "share the window"),
    (lambda: l24_decompose(_instance(p=2.0), TestSequence(0, (1.0, 1.0)),
                           covering_sequence(WeightSeq(0, (1.0, 1.0)), 2.0)),
     ValueError, "0 < p <= 1"),
    (lambda: l24_decompose(_instance(q=math.inf), TestSequence(0, (1.0, 1.0)),
                           covering_sequence(WeightSeq(0, (1.0, 1.0)), 2.0)),
     ValueError, "finite q"),
    # A test sequence with a nonzero entry outside the window (0-2).
    (lambda: l24_decompose(_instance(p=0.5, length=3), TestSequence(5, (1.0, 2.0)),
                           covering_sequence(WeightSeq(0, (1.0,) * 3), 2.0)),
     ValueError, "supported outside the window"),
    (lambda: l24_decompose(_instance(p=0.5, length=3),
                           TestSequence(-1, (7.0, 1.0, 1.0, 1.0)),
                           covering_sequence(WeightSeq(0, (1.0,) * 3), 2.0)),
     ValueError, "supported outside the window"),
    (lambda: dyadic_covering(StepFunction(0, (1.0, 2.0))).index(100), IndexError,
     "k out of range"),
    (lambda: dyadic_covering(StepFunction(0, (1.0, 2.0))).index(-100), IndexError,
     "k out of range"),
    (lambda: continuous_constant("calA_5", _instance()), ValueError,
     "unknown continuous constant"),
    (lambda: lemma_decompose("L4", _instance(), StepFunction(0, (1.0, 1.0))),
     ValueError, "unknown decomposition"),
    (lambda: lemma_decompose("L1", _instance(), StepFunction(1, (1.0, 1.0))),
     ValueError, "share the window"),
    (lambda: lemma_decompose("L1", _instance(), StepFunction(0, (1.0,))),
     ValueError, "share the window"),
    (lambda: condition_A(14, _instance()), ValueError, "unknown A-constant index"),
    (lambda: condition_A(0, _instance()), ValueError, "unknown A-constant index"),
    (lambda: condition_D(7, _instance()), ValueError, "unknown D-constant index"),
    (lambda: conjugate(0.0), ValueError, "exponent must lie in"),
    (lambda: conjugate(-2.0), ValueError, "exponent must lie in"),
    (lambda: conjugate(math.nan), ValueError, "exponent must lie in"),
    (lambda: functional_lhs("NOPE", _instance(), TestSequence(0, (1.0, 1.0))),
     ValueError, "unknown or non-instance form"),
    (lambda: functional_lhs("SCALE3", _instance(), TestSequence(0, (1.0, 1.0))),
     ValueError, "unknown or non-instance form"),
    (lambda: scaling_pair("SCALE3", WeightSeq(0, (1.0, 1.0)), WeightSeq(1, (1.0, 1.0)),
                          ExponentPair(2.0, 2.0)), ValueError, "share the window"),
    (lambda: scaling_pair("SCALE3", WeightSeq(0, (1.0, 1.0)), WeightSeq(0, (1.0,)),
                          ExponentPair(2.0, 2.0)), ValueError, "share the window"),
    (lambda: scaling_pair("SCALE5", WeightSeq(0, (1.0, 1.0)), WeightSeq(0, (1.0, 1.0)),
                          ExponentPair(2.0, 2.0)), ValueError, "unknown scaling side"),
    (lambda: equivalence_suite("hux", _instance(p=2.0), trials=1), ValueError,
     "sup-of-sequence suite needs"),
    (lambda: equivalence_suite("hux", _instance(q=math.inf), trials=1), ValueError,
     "sup-of-sequence suite needs"),
    (lambda: equivalence_suite("kernel_main", _instance(p=2.0), trials=1), ValueError,
     "three-form equivalence needs"),
    (lambda: equivalence_suite("supremalpge", _instance(p=0.5), trials=1), ValueError,
     "sigma-weighted suite needs"),
    (lambda: equivalence_suite("supremalpge", _instance(p=math.inf), trials=1),
     ValueError, "sigma-weighted suite needs"),
    (lambda: equivalence_suite("supremalpge", _instance(q=math.inf), trials=1),
     ValueError, "sigma-weighted suite needs"),
    (lambda: equivalence_suite("nope", _instance(), trials=1), ValueError,
     "unknown suite"),
])
def test_library_errors(build, error, match):
    with pytest.raises(error, match=match):
        build()


def test_doc_weight_names_its_field():
    with pytest.raises(ValueError, match="expected an array") as err:
        doc_weight((1.0, 1.0), "w", 0, 2)
    assert err.value.field == "w"


@pytest.mark.parametrize("bad", [True, "1", None, math.nan, math.inf, -1.0, 10 ** 400])
@pytest.mark.parametrize("where, field", [
    ("v", "v[1]"), ("u", "kernel.u[1]"), ("entries", "kernel.entries[0][1]")])
def test_arrays_name_their_first_bad_entry(bad, where, field):
    """A number array is checked in bulk; where that fails, its first bad
    entry (index 1, before a negative one) raises `doc_number`'s error,
    with the entry's own field."""
    array = [1, bad, -2.0]
    kernel = {"v": {"type": "constant", "c": 1},
              "u": {"type": "row", "u": array},
              "entries": {"type": "tabulated", "entries": [array, [0.0, 1.0], [2.0]]}}
    doc = _document(window={"start": 0, "length": 3}, v=array if where == "v" else [1, 1, 1],
                    w=[1, 1, 1], kernel=kernel[where])
    with pytest.raises(InstanceError) as want:
        doc_number(bad, field)
    with pytest.raises(InstanceError) as got:
        parse_instance(json.dumps(doc))
    assert (got.value.field, str(got.value)) == (field, str(want.value))


ONE = {"type": "constant", "c": 1}


# Each malformed kernel document on the window (0, 2), the spec that
# carries the same data, and the error a direct `Kernel` of it raises.
# `kernel_spec` never returns a spec of unknown type, so that case alone
# is a TypeError (`cli.parse_instance` converts only ValueErrors).
@pytest.mark.parametrize("doc, spec, error", [
    ({"type": "constant", "c": -1.0}, lambda: ConstantKernel(-1.0), ValueError),
    ({"type": "constant", "c": math.nan}, lambda: ConstantKernel(math.nan), ValueError),
    ({"type": "constant", "c": math.inf}, lambda: ConstantKernel(math.inf), ValueError),
    ({"type": "tabulated", "entries": [[1.0, -1.0], [1.0]]},
     lambda: TabulatedKernel(0, ((1.0, -1.0), (1.0,))), ValueError),
    ({"type": "tabulated", "entries": [[1.0, math.nan], [1.0]]},
     lambda: TabulatedKernel(0, ((1.0, math.nan), (1.0,))), ValueError),
    ({"type": "tabulated", "entries": [[1.0, 1.0], [math.inf]]},
     lambda: TabulatedKernel(0, ((1.0, 1.0), (math.inf,))), ValueError),
    ({"type": "sup", "u": [1.0, -1.0]},
     lambda: SupSequenceKernel(WeightSeq(0, (1.0, -1.0))), ValueError),
    ({"type": "row", "u": [math.nan, 1.0]},
     lambda: RowSequenceKernel(WeightSeq(0, (math.nan, 1.0))), ValueError),
    ({"type": "row", "u": [1.0, math.inf]},
     lambda: RowSequenceKernel(WeightSeq(0, (1.0, math.inf))), ValueError),
    ({"type": "tabulated", "entries": [[1.0, 1.0], [1.0, 1.0]]},
     lambda: TabulatedKernel(0, ((1.0, 1.0), (1.0, 1.0))), ValueError),
    ({"type": "tabulated", "entries": [[1.0], [1.0, 1.0]]},
     lambda: TabulatedKernel(0, ((1.0,), (1.0, 1.0))), ValueError),
    ({"type": "tabulated", "entries": [[1.0, 1.0]]},
     lambda: TabulatedKernel(0, ((1.0, 1.0),)), ValueError),
    ({"type": "tabulated", "entries": [[1.0, 1.0, 1.0], [1.0, 1.0], [1.0]]},
     lambda: TabulatedKernel(0, ((1.0, 1.0, 1.0), (1.0, 1.0), (1.0,))), ValueError),
    ({"type": "sup", "u": [1.0]}, lambda: SupSequenceKernel(WeightSeq(0, (1.0,))),
     ValueError),
    ({"type": "row", "u": [1.0, 1.0, 1.0]},
     lambda: RowSequenceKernel(WeightSeq(0, (1.0, 1.0, 1.0))), ValueError),
    ({"type": "power", "base": ONE, "r": 0.0},
     lambda: PowerKernel(ConstantKernel(1.0), 0.0), ValueError),
    ({"type": "power", "base": ONE, "r": -2.0},
     lambda: PowerKernel(ConstantKernel(1.0), -2.0), ValueError),
    ({"type": "power", "base": ONE, "r": math.inf},
     lambda: PowerKernel(ConstantKernel(1.0), math.inf), ValueError),
    ({"type": "power", "base": {"type": "constant", "c": -1.0}, "r": 2.0},
     lambda: PowerKernel(ConstantKernel(-1.0), 2.0), ValueError),
    ({"type": "spiral"}, lambda: "spiral", TypeError),
])
def test_kernel_spec_and_kernel_reject_the_same_documents(doc, spec, error):
    with pytest.raises(InstanceError) as err:
        kernel_spec(doc, "kernel", 0, 2)
    assert err.value.field.startswith("kernel")
    with pytest.raises(InstanceError) as err:
        parse_instance(json.dumps(_document(kernel=doc)))
    assert err.value.field.startswith("kernel")
    with pytest.raises(error):
        Kernel(spec(), 0, 2)
