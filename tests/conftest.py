"""The one Hypothesis profile: no example fails because the host was slow.

Modules set only ``max_examples``; ``tests/test_no_wall_clock.py`` checks.
"""

from hypothesis import HealthCheck, settings

settings.register_profile(
    "tier1", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("tier1")
