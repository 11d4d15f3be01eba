"""Suite-wide test settings: one hypothesis profile for every property test.

A failing property test prints its ``@reproduce_failure`` blob, so the failure
replays without the local example database.
"""

from hypothesis import settings

settings.register_profile("bslab", max_examples=60, deadline=None, print_blob=True)
settings.load_profile("bslab")
