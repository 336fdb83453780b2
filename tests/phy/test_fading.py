"""Tests for the block-fading models (Section III-D, eq. 8)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from repro.phy.fading import BlockFadingLink, NakagamiFading, RayleighFading
from repro.utils.errors import ConfigurationError


class TestRayleigh:
    def test_closed_form_cdf(self):
        fading = RayleighFading(mean_sinr=10.0)
        assert fading.cdf(10.0) == pytest.approx(1.0 - math.exp(-1.0))

    def test_cdf_at_zero(self):
        assert RayleighFading(5.0).cdf(0.0) == 0.0

    def test_cdf_monotone(self):
        fading = RayleighFading(3.0)
        values = [fading.cdf(h) for h in (0.1, 1.0, 5.0, 20.0)]
        assert values == sorted(values)

    def test_empirical_cdf_agrees(self):
        fading = RayleighFading(mean_sinr=8.0)
        samples = fading.sample(np.random.default_rng(0), size=100000)
        for threshold in (2.0, 8.0, 16.0):
            empirical = float(np.mean(samples <= threshold))
            assert empirical == pytest.approx(fading.cdf(threshold), abs=0.01)

    def test_sample_mean(self):
        samples = RayleighFading(4.0).sample(np.random.default_rng(1), size=50000)
        assert float(samples.mean()) == pytest.approx(4.0, rel=0.05)

    def test_invalid_mean(self):
        with pytest.raises(ConfigurationError):
            RayleighFading(0.0)

    @given(mean=st.floats(0.1, 100.0), threshold=st.floats(0.0, 100.0))
    @settings(max_examples=50)
    def test_property_cdf_in_unit_interval(self, mean, threshold):
        assert 0.0 <= RayleighFading(mean).cdf(threshold) <= 1.0


class TestNakagami:
    def test_m1_reduces_to_rayleigh(self):
        nakagami = NakagamiFading(mean_sinr=6.0, m=1.0)
        rayleigh = RayleighFading(mean_sinr=6.0)
        for threshold in (0.5, 3.0, 6.0, 20.0):
            assert nakagami.cdf(threshold) == pytest.approx(
                rayleigh.cdf(threshold), abs=1e-10)

    def test_larger_m_less_fading(self):
        # More line-of-sight (larger m) => fewer deep fades => lower
        # outage at thresholds below the mean.
        mild = NakagamiFading(10.0, m=4.0)
        severe = NakagamiFading(10.0, m=0.5)
        assert mild.cdf(2.0) < severe.cdf(2.0)

    def test_empirical_cdf_agrees(self):
        fading = NakagamiFading(mean_sinr=5.0, m=2.0)
        samples = fading.sample(np.random.default_rng(2), size=100000)
        assert float(np.mean(samples <= 5.0)) == pytest.approx(
            fading.cdf(5.0), abs=0.01)

    def test_invalid_shape(self):
        with pytest.raises(ConfigurationError):
            NakagamiFading(5.0, m=0.2)

    @pytest.mark.parametrize("m", [0.5, 1.0, 2.5, 4.0])
    @pytest.mark.parametrize("threshold", [0.0, 0.5, 3.0, 20.0])
    def test_cdf_is_gammainc(self, m, threshold):
        fading = NakagamiFading(mean_sinr=6.0, m=m)
        assert fading.cdf(threshold) == float(special.gammainc(m, m * threshold / 6.0))


class TestBlockFadingLink:
    def test_loss_probability_is_cdf_at_threshold(self):
        fading = RayleighFading(10.0)
        link = BlockFadingLink(fading, threshold=3.0, rng=0)
        assert link.loss_probability == pytest.approx(fading.cdf(3.0))
        assert link.success_probability == pytest.approx(1.0 - fading.cdf(3.0))

    def test_realize_slot_matches_probability(self):
        link = BlockFadingLink(RayleighFading(10.0), threshold=3.0, rng=1)
        successes = sum(link.realize_slot() for _ in range(30000))
        assert successes / 30000 == pytest.approx(link.success_probability, abs=0.01)

    def test_invalid_threshold(self):
        with pytest.raises(ConfigurationError):
            BlockFadingLink(RayleighFading(10.0), threshold=0.0)
