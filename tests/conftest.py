"""One hypothesis profile for the whole suite: the same examples on every run."""

from hypothesis import settings

settings.register_profile("tristack", derandomize=True, deadline=None)
settings.load_profile("tristack")
