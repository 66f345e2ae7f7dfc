"""Every hypothesis test draws the same examples on every run and in every
checkout: derandomized, with no example database to replay a failing draw
in one checkout only. Each test keeps its own max_examples."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
