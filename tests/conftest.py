"""Settings shared by every test module.

Hypothesis draws its examples from a fixed seed and keeps no example
database, so each run of the same command checks the same examples.  They
are fixed per command, not per file: Hypothesis (6.155.2) also mixes
constants from every loaded module into its draws.  Run alone,
`tests/test_properties.py` reached 489 settled and 111 searched rows; with
`tests/test_cli_golden.py` loaded too, 501 and 99.  A coverage floor on
drawn examples needs room for both.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
