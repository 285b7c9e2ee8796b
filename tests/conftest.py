"""Suite-wide test settings.

Hypothesis runs with no per-example deadline, so a first call that builds a
cached plan or a slow stretch of the machine cannot fail a property, and
derandomized, so every run draws the same examples and a failure reproduces
from a plain rerun. A test's own ``@settings`` still override these.
"""

from hypothesis import settings

settings.register_profile("cyclecast", deadline=None, derandomize=True)
settings.load_profile("cyclecast")
