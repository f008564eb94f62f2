"""Test-wide settings.

With the ``CI`` environment variable set, hypothesis runs its ``ci`` profile:
examples are drawn from a fixed seed, and a failure prints the blob that
replays it (``@reproduce_failure``), so a property that fails in CI fails
the same way on any checkout.
"""

import os

try:
    import hypothesis
except ImportError:  # the property tests skip themselves
    hypothesis = None

if hypothesis is not None:
    hypothesis.settings.register_profile("ci", derandomize=True, print_blob=True)
    if os.environ.get("CI"):
        hypothesis.settings.load_profile("ci")
