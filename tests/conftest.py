"""Hypothesis profiles: ``HYPOTHESIS_PROFILE=ci`` makes property tests reproducible.

The ``ci`` profile derandomizes example generation, so a run draws the
same examples every time, and lifts the per-example deadline, whose
timing depends on the host.  Without the variable the default profile
applies.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
