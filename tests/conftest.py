"""Suite-wide settings: NumPy's ComplexWarning, raised when a complex value
is cast to a real dtype and its imaginary part dropped, is an error."""

try:
    from numpy.exceptions import ComplexWarning
except ImportError:  # NumPy < 1.25
    from numpy import ComplexWarning


def pytest_configure(config):
    config.addinivalue_line(
        "filterwarnings", f"error::{ComplexWarning.__module__}.{ComplexWarning.__qualname__}")
