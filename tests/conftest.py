"""Hypothesis profiles.

``HYPOTHESIS_PROFILE=ci`` (set by the CI workflow) keeps every setting of
the default profile and adds ``print_blob``, so a failing property test
prints a blob that replays its example with ``@reproduce_failure``.
"""

import os

from hypothesis import settings

settings.register_profile("ci", print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
