"""The schema's user rank, derived from the index widths, against the strings.

``ColumnSchema.user_rank`` maps a positional user code to the rank of its
user string, which the canonical sort reads in place of the string.  The
rank is computed from the zero-padded index widths without building a
name; the cases sit where an index outgrows its padding (``student999``
to ``student1000``, ``group99`` to ``group100``) and at the empty ends.
"""

import numpy as np
import pytest

from repro.columnar.schema import ColumnSchema, _user_names, _user_rank
from repro.core import COURSE, scaled_course


@pytest.mark.parametrize("n_groups", [0, 99, 100, 101])
@pytest.mark.parametrize("n_students", [0, 1, 999, 1000, 1001, 10_001])
def test_rank_is_the_stable_argsort_of_the_names(n_students, n_groups):
    names = _user_names(n_students, n_groups)
    want = np.empty(len(names), dtype=np.int64)
    want[np.argsort(names, kind="stable")] = np.arange(len(names))
    got = _user_rank(n_students, n_groups)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("course", [COURSE, scaled_course(8.0)], ids=["paper", "8x"])
def test_schema_ranks_without_building_names(course):
    schema = ColumnSchema.for_course(course)
    assert "user_names" not in vars(schema)  # still the lazy table
    names = schema.user_names
    np.testing.assert_array_equal(np.argsort(schema.user_rank), np.argsort(names, kind="stable"))
