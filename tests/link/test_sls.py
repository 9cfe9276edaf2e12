"""Unit tests for the 802.11ad sector-level sweep cost."""

import pytest

from repro.link.sls import sls_probe_count


class TestProbeCount:
    def test_additive(self):
        assert sls_probe_count(121, 101) == 222

    def test_validation(self):
        with pytest.raises(ValueError):
            sls_probe_count(0, 10)
