"""Shared pytest configuration: a reproducible hypothesis profile.

Property tests draw their examples from a fixed seed, run no wall-clock
deadline (a loaded machine must not turn a slow example into a failure) and
keep the example count small so the suite stays quick.
"""

from hypothesis import settings

settings.register_profile("qcqp", derandomize=True, deadline=None, max_examples=60, database=None)
settings.load_profile("qcqp")
