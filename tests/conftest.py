"""Suite-wide settings: NumPy's ComplexWarning, raised when a complex value
is cast to a real dtype and its imaginary part dropped, is an error; and the
hypothesis profile of the conformance sweep, which draws the same bounded
set of examples on every run (derandomized, no example database) with no
deadline, since a first call at a new N builds that size's cached plans."""

from hypothesis import settings

try:
    from numpy.exceptions import ComplexWarning
except ImportError:  # NumPy < 1.25
    from numpy import ComplexWarning

settings.register_profile("ccpt", derandomize=True, database=None, deadline=None,
                          max_examples=200)
settings.load_profile("ccpt")


def pytest_configure(config):
    config.addinivalue_line(
        "filterwarnings", f"error::{ComplexWarning.__module__}.{ComplexWarning.__qualname__}")
