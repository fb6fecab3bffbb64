"""Hypothesis settings shared by every property test.

Examples are drawn from a fixed seed and no example database is kept, so
each run draws the same cases; no example has a deadline, because exact
arithmetic on a drawn case may take long.  Each test sets its own
`max_examples`.
"""

from hypothesis import settings

settings.register_profile("logvf", derandomize=True, database=None,
                          deadline=None)
settings.load_profile("logvf")
