import os
import sys

from hypothesis import settings

sys.path.insert(0, os.path.dirname(__file__))

# property tests draw the same examples on every run and never time out
settings.register_profile("wavegain", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("wavegain")
