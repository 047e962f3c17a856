"""The subpage mapping table."""

import pytest

from repro.errors import MappingError
from repro.ftl.mapping import SubpageMap
from repro.nand.geometry import PPA


class TestSubpageMap:
    def test_lookup_missing(self):
        assert SubpageMap().lookup(0) is None

    def test_bind_lookup(self):
        sm = SubpageMap()
        sm.bind(9, PPA(1, 2, 3))
        assert sm.lookup(9) == PPA(1, 2, 3)

    def test_rebind_replaces(self):
        sm = SubpageMap()
        sm.bind(9, PPA(1, 2, 3))
        sm.bind(9, PPA(4, 5, 0))
        assert sm.lookup(9) == PPA(4, 5, 0)
        assert len(sm) == 1

    def test_unbind(self):
        sm = SubpageMap()
        sm.bind(9, PPA(1, 2, 3))
        sm.unbind(9)
        assert 9 not in sm

    def test_unbind_missing_rejected(self):
        with pytest.raises(MappingError):
            SubpageMap().unbind(9)

    def test_negative_lsn_rejected(self):
        with pytest.raises(MappingError):
            SubpageMap().bind(-1, PPA(0, 0, 0))

    def test_items(self):
        sm = SubpageMap()
        sm.bind(1, PPA(0, 0, 1))
        sm.bind(2, PPA(0, 0, 2))
        assert dict(sm.items()) == {1: PPA(0, 0, 1), 2: PPA(0, 0, 2)}
