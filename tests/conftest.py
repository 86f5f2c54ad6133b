"""Suite-wide settings: every hypothesis property runs derandomized and
without a per-example deadline, so a run is reproducible and a slow or
loaded machine cannot fail an example on its timing alone."""
from hypothesis import settings

settings.register_profile("hodgerep", derandomize=True, deadline=None)
settings.load_profile("hodgerep")
