"""Test-wide settings: hypothesis runs derandomized, with no deadline and
no example database, so every run draws the same examples.  Its remaining
cache (constants mined from the source) goes to a temporary directory that
is removed at exit, so a test run writes no ``.hypothesis/`` directory."""

import atexit
import shutil
import tempfile

from hypothesis import configuration, settings

_home = tempfile.mkdtemp(prefix="nilfill-hypothesis-")
atexit.register(shutil.rmtree, _home, ignore_errors=True)
configuration.set_hypothesis_home_dir(_home)

settings.register_profile("nilfill", derandomize=True, deadline=None, database=None)
settings.load_profile("nilfill")
