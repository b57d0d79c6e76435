"""Differential verification harness tests."""

import pytest

from repro.core.verify import (
    CampaignReport,
    verify_backend_results,
    verify_engine_roundtrips,
    verify_modmul_widths,
)
from repro.errors import ParameterError
from repro.ntt.params import NTTParams


class TestModmulCampaign:
    def test_default_campaign_passes(self):
        report = verify_modmul_widths(widths=(4, 8, 16), trials_per_width=20)
        assert report.passed
        assert report.trials == 60

    def test_functional_only_mode(self):
        report = verify_modmul_widths(
            widths=(6, 12, 24, 32), trials_per_width=30, run_in_sram=False
        )
        assert report.passed
        assert report.trials == 120

    def test_deterministic_given_seed(self):
        a = verify_modmul_widths(widths=(8,), trials_per_width=5, seed=3)
        b = verify_modmul_widths(widths=(8,), trials_per_width=5, seed=3)
        assert a.trials == b.trials and a.passed and b.passed

    def test_tiny_width_rejected(self):
        with pytest.raises(ParameterError):
            verify_modmul_widths(widths=(3,))

    def test_report_repr(self):
        report = CampaignReport("x", trials=5)
        assert "PASS" in repr(report)
        report.record("boom", 1)
        assert "FAIL(1)" in repr(report)


class TestEngineCampaign:
    def test_default_configs_pass(self):
        report = verify_engine_roundtrips(trials_per_config=1)
        assert report.passed
        assert report.trials == 3

    def test_custom_config(self):
        report = verify_engine_roundtrips(
            configs=[NTTParams(n=8, q=17)], trials_per_config=2
        )
        assert report.passed and report.trials == 2


class TestBackendCampaign:
    @pytest.mark.parametrize("backend", ["model", "sram"])
    def test_single_and_ganged_backends_pass(self, backend):
        report = verify_backend_results(backend)
        # Three rings x three ops, plus the 8-point ring's gang of two.
        assert report.passed and report.trials == 12
