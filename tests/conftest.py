"""Hypothesis settings shared by every property test.

Examples are drawn from a fixed seed and no example database is kept, so
each run draws the same cases; no example has a deadline, because exact
arithmetic on a drawn case may take long.  Each test sets its own
`max_examples`.

Hypothesis imports its patch writer when a property fails; where libcst is
installed, that import raises a DeprecationWarning, which the warnings
filter would turn into an error inside pytest's teardown and so end the
session in INTERNALERROR instead of reporting the failure.  The module is
imported once here, with that warning ignored; without libcst it is absent.
"""

import warnings

from hypothesis import settings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

settings.register_profile("logvf", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("logvf")
