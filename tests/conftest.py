"""Shared test settings: one fixed hypothesis profile for every property test.

Derandomized and without an example database, so each run draws the same
examples and tier 1 stays deterministic; ``max_examples`` bounds its time.
"""
from hypothesis import settings

settings.register_profile("varpert", derandomize=True, database=None,
                          deadline=None, max_examples=1000)
settings.load_profile("varpert")
