"""Suite-wide test settings: one hypothesis profile for every property test."""

from hypothesis import settings

settings.register_profile("bslab", max_examples=60, deadline=None)
settings.load_profile("bslab")
