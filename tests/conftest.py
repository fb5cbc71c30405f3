"""Shared test settings.

Property tests draw the same examples on every run: the hypothesis profile
below derives each test's random seed from the test itself and keeps no
example database, so a run neither depends on an earlier one nor flips on a
new random draw.  Each test keeps its own ``max_examples``.
"""

from hypothesis import settings

from parabolab import operators

settings.register_profile("parabolab", derandomize=True, database=None, deadline=None)
settings.load_profile("parabolab")


def count_eigh(monkeypatch) -> list:
    """The size of each dense eigensolver call from now on, which starts
    from an empty eigendecomposition cache (``monkeypatch`` undoes both)."""
    monkeypatch.setattr(operators, "_EIG_CACHE", {})
    calls = []
    eigh = operators._symmetric_eigh
    monkeypatch.setattr(operators, "_symmetric_eigh",
                        lambda sym: calls.append(len(sym)) or eigh(sym))
    return calls
