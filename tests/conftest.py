"""Suite-wide test configuration."""

from hypothesis import HealthCheck, settings

# Tier-1 must give the same verdict on every run: derive hypothesis
# examples from each test's source rather than a fresh random seed, and
# don't let a busy host's slow data generation fail a health check.
settings.register_profile(
    "tier1", derandomize=True,
    suppress_health_check=[HealthCheck.too_slow])
# CI buys depth for the lane oracle and the PCIe properties with ten
# times the example budget (``--hypothesis-profile=ci``); tier-1 keeps
# the default one.
settings.register_profile(
    "ci", parent=settings.get_profile("tier1"),
    max_examples=10 * settings.get_profile("tier1").max_examples)
settings.load_profile("tier1")
