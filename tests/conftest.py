"""Shared test settings.

Property tests draw the same examples on every run: the hypothesis profile
below derives each test's random seed from the test itself and keeps no
example database, so a run neither depends on an earlier one nor flips on a
new random draw.  Each test keeps its own ``max_examples``.
"""

from hypothesis import settings

settings.register_profile("parabolab", derandomize=True, database=None, deadline=None)
settings.load_profile("parabolab")
