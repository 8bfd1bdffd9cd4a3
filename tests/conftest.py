"""Suite-wide set-up shared by the property tests."""

import tempfile

from hypothesis.configuration import set_hypothesis_home_dir

# With no example database Hypothesis still caches source constants, at
# collection, under ./.hypothesis; keep that cache in a directory removed at exit.
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory()
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)
