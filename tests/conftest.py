"""Settings shared by every test module.

Every property test runs under one hypothesis profile: a failure prints the
``@reproduce_failure`` blob that replays it, and no example database is kept,
so no run replays an example that an earlier run stored.
"""

from hypothesis import settings

settings.register_profile("tier1", database=None, print_blob=True)
settings.load_profile("tier1")
