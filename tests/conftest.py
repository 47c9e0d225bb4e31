"""Settings for the whole test suite.

Every Hypothesis test draws its examples from a fixed seed and keeps no
example database, so each run tries the same examples and writes no
``.hypothesis/`` directory.  Hypothesis's own ``--hypothesis-profile``
option still loads another profile over this one.
"""
from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")
