"""Shared test configuration.

Registers the `derandomized` hypothesis profile: examples come from a fixed
seed, with no deadline and no example database, so a property test draws the
same cases on every run and machine. Property tests opt in with
`@settings(settings.get_profile("derandomized"), max_examples=...)`.
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, deadline=None, database=None)
