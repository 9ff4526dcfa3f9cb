"""`reference_diff.moved` on hand-made pairs of reference structures."""

import math

from reference_diff import inside, moved


def test_moved_names_each_differing_entry_and_the_largest_float_shift():
    recorded = {"lhs": [{"a": [1.0], "lhs": {"F": 2.0}},
                        {"a": [1.0], "lhs": {"F": 4.0}},
                        {"a": [3.0], "lhs": {"F": "inf"}}],
                "flags": {"F": [True, False]}, "exponents": [0.5, 1.0]}
    rebuilt = {"lhs": [{"a": [1.0], "lhs": {"F": 2.0}},
                       {"a": [1.0], "lhs": {"F": 4.0 * (1 + 2 ** -50)}},
                       {"a": [3.0], "lhs": {"F": 1e308}}],
               "flags": {"F": [True, True]}, "exponents": [0.5, 1.0, 2.0]}
    names, shift = moved(recorded, rebuilt)
    # lhs[2] moves from a string to a float: it moves, with no float shift.
    assert names == ["lhs[1]", "lhs[2]", "flags", "exponents[2]"]
    assert shift == 2 ** -50 / (1 + 2 ** -50)


def test_moved_reads_top_level_lists_and_non_finite_floats():
    assert moved([1.0, 2.0], [1.0, 2.0]) == ([], 0.0)
    assert moved([1.0, math.nan], [1.0, math.nan]) == ([], 0.0)
    assert moved([{"x": 1.0}], [{"x": 1.0, "y": 0.0}]) == (["[0]"], 0.0)
    assert moved([1.0, math.inf], [1.0, 3.0]) == (["[1]"], math.inf)
    assert moved([1, 2.0], [1.0, 2.0]) == (["[0]"], 0.0)


def test_inside_marks_an_entry_whose_only_moves_are_small_float_shifts():
    recorded = {"lhs": [{"a": [1.0], "lhs": {"F": 2.0, "G": 0.5}}], "flags": [True]}
    rebuilt = {"lhs": [{"a": [1.0], "lhs": {"F": 2.0 * (1 + 2 ** -50), "G": 0.5}}],
               "flags": [True]}
    assert moved(recorded, rebuilt)[0] == ["lhs[0]"]
    assert inside(recorded, rebuilt, 1e-12) == ["lhs[0]"]
    # Shifted floats are still moved entries where no tolerance applies.
    assert inside(recorded, rebuilt, 0.0) == []


def test_inside_leaves_out_large_shifts_and_other_differences():
    recorded = {"lhs": [{"lhs": {"F": 2.0}}, {"lhs": {"F": 2.0}, "ok": True},
                        {"lhs": {"F": 2.0}}, {"lhs": {"F": math.inf}}],
                "extra": [1.0]}
    rebuilt = {"lhs": [{"lhs": {"F": 2.0 * (1 + 1e-9)}},
                       {"lhs": {"F": 2.0 * (1 + 2 ** -50)}, "ok": False},
                       {"lhs": {"F": 2.0 * (1 + 2 ** -50), "G": 1.0}},
                       {"lhs": {"F": 1e308}}],
               "extra": [1.0, 2.0]}
    # A shift past the bound, a flag beside a small shift, a key added
    # beside it, an infinite value turned finite, and an added entry.
    assert moved(recorded, rebuilt)[0] == ["lhs[0]", "lhs[1]", "lhs[2]", "lhs[3]",
                                           "extra[1]"]
    assert inside(recorded, rebuilt, 1e-12) == []
