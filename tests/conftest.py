import os

import pytest
from hypothesis import HealthCheck, settings

from quiddity.core import brute_force_quiddities
from quiddity.verify import field_integers, field_sqrt

settings.register_profile(
    "ci", max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.register_profile(
    "quick", max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "quick"))


@pytest.fixture(scope="session")
def brute_walks():
    """The brute-force walks over Z and sqrt2 at size <= 6, |k| <= 2, built
    once per session: name -> (field, [(multipliers, epsilon), ...])."""
    walks = {}
    for name, field in (("integers", field_integers()), ("sqrt2", field_sqrt(2))):
        walks[name] = (field, list(brute_force_quiddities(field.generator(), 6, 2)))
    return walks
