"""Settings shared by every test module.

Hypothesis draws its examples from a fixed seed and keeps no example
database, so each run of a property test checks the same examples.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
