import os

import pytest

from mutants import MUTANTS, ROOT, source_path


@pytest.mark.parametrize("row", MUTANTS, ids=[m.name for m in MUTANTS])
def test_every_mutant_still_applies_once_and_names_tests_that_exist(row):
    # tests/mutants.py plants each row's defect; a refactor that moves the
    # row's old text must carry the row along
    with open(source_path(row)) as f:
        assert f.read().count(row.old) == 1
    for node in row.tests:
        path, name = node.split("::")
        name = name.partition("[")[0]  # a parametrized node: its function's name
        with open(os.path.join(ROOT, path)) as f:
            assert f"\ndef {name}(" in f.read()
