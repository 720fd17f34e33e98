"""Hypothesis profiles, and the fixture that counts seedings.

``HYPOTHESIS_PROFILE=ci`` (set by the CI workflow) keeps every setting of
the default profile and adds ``print_blob``, so a failing property test
prints a blob that replays its example with ``@reproduce_failure``.
"""

import os

import pytest
from hypothesis import settings

from extphase import numkit

settings.register_profile("ci", print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def jacobian_calls(monkeypatch):
    """The argument of every `numkit.jacobian_raw` call: one per seeding,
    over leaves when a kernel is traced."""
    calls = []
    jacobian_raw = numkit.jacobian_raw

    def counted(fvec, x):
        calls.append(x)
        return jacobian_raw(fvec, x)

    monkeypatch.setattr(numkit, "jacobian_raw", counted)
    return calls
