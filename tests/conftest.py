"""Suite-wide hypothesis settings.

Every property test draws the same examples on every run (derandomized,
no example database, no deadline); ``max_examples`` stays per test.
Hypothesis's own caches go to a temporary directory that is removed when
the session ends, so a test run writes no ``.hypothesis/`` into the
working tree.
"""

import shutil
import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("enetstats", derandomize=True, database=None, deadline=None)
settings.load_profile("enetstats")

_HYPOTHESIS_HOME = tempfile.mkdtemp(prefix="enetstats-hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME)


def pytest_sessionfinish(session, exitstatus):
    shutil.rmtree(_HYPOTHESIS_HOME, ignore_errors=True)
