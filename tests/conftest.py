"""Shared test set-up: one hypothesis profile, loaded for every run.

``derandomize`` makes each property draw the same examples on every run and
machine; ``deadline=None`` keeps timing noise on a loaded host from failing
a property.
"""

from hypothesis import settings

settings.register_profile("srq", derandomize=True, deadline=None)
settings.load_profile("srq")
