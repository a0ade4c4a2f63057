"""Shared test settings."""

from hypothesis import settings

# Property tests draw the same examples on every run and have no per-example
# time limit, so a loaded machine neither fails nor reshuffles them.
settings.register_profile("gossipsim", deadline=None, derandomize=True)
settings.load_profile("gossipsim")
