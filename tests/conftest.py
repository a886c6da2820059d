"""Hypothesis settings shared by every property test: no deadline, since an
example's wall time depends on the host and is not what these tests check,
and no example database, so that no run replays or records examples of an
earlier run.  A test sets only its own max_examples."""

from hypothesis import settings

settings.register_profile("rotorkick", deadline=None, database=None)
settings.load_profile("rotorkick")
