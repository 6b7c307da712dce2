import sys
import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

# Property tests replay the same small set of examples on every run and
# keep no example database, so tier-1 stays deterministic.
settings.register_profile(
    "netdesign", derandomize=True, deadline=None, database=None, max_examples=20
)
settings.load_profile("netdesign")

# Hypothesis still caches constants scraped from the package source, from
# collection on; keep that cache in a directory removed at exit, not in a
# .hypothesis/ of the checkout.
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="netdesign-hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # Replay the acceptance verdicts after capture has ended so they are
    # visible in piped output too, not only on a live terminal.
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "VERDICTS", None) if mod else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
