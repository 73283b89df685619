"""Variables are the keys of every binding environment: their hash is
computed once, at construction, without changing what equal means."""

import copy
import pickle

import pytest

from repro.calculus.terms import AttName, AttVar, DataVar, PathVar

SORTS = (DataVar, PathVar, AttVar)


class TestVariableIdentity:
    def test_equal_names_of_one_sort_are_equal(self):
        for sort in SORTS:
            assert sort("X") == sort("X")
            assert hash(sort("X")) == hash(sort("X"))
            assert sort("X") != sort("Y")

    def test_equal_names_of_different_sorts_differ(self):
        x = [sort("X") for sort in SORTS]
        assert len(set(x)) == 3
        env = {variable: position for position, variable in enumerate(x)}
        assert [env[sort("X")] for sort in SORTS] == [0, 1, 2]
        # an attribute *name* is not an attribute variable either
        assert AttVar("X") != AttName("X")

    @pytest.mark.parametrize("clone", [
        copy.copy, copy.deepcopy,
        lambda variable: pickle.loads(pickle.dumps(variable))])
    def test_a_copy_hashes_like_its_original(self, clone):
        for sort in SORTS:
            original = sort("PATH_p")
            copied = clone(original)
            assert copied is not original
            assert type(copied) is sort
            assert copied == original
            assert hash(copied) == hash(original)
            assert {original: 1}[copied] == 1

    def test_variables_carry_no_instance_dict(self):
        for sort in SORTS:
            assert not hasattr(sort("X"), "__dict__")
