"""Suite-wide settings: Hypothesis draws the same examples on every run and
keeps no example database, so a failure reproduces anywhere and a run writes
no `.hypothesis/` directory."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
