"""Hypothesis draws the same examples on every run and imposes no deadline, so
property tests neither change from run to run nor fail on a slow host."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
