"""Hot numeric kernels: compiled backend when available, numpy fallback.

Set ``SKFNAV_PURE=1`` to force the numpy backend (useful for benchmarking and
debugging).  ``BACKEND`` reports which implementation serves
``strapdown_batch``; ``strapdown_columns``, the numpy body on columns or
floats, and its two halves are the same under either backend.
"""

import os

from . import _numpy as numpy_backend

if os.environ.get("SKFNAV_PURE"):
    _impl = numpy_backend
    BACKEND = "numpy"
else:
    try:
        from . import _native as _impl  # type: ignore[attr-defined]

        BACKEND = "native"
    except ImportError:
        _impl = numpy_backend
        BACKEND = "numpy"

strapdown_batch = _impl.strapdown_batch
strapdown_columns = numpy_backend.strapdown_columns
attitude_half = numpy_backend.attitude_half
translation_half = numpy_backend.translation_half
angle_trig = numpy_backend.angle_trig
rotation_entries = numpy_backend.rotation_entries

__all__ = [
    "BACKEND", "strapdown_batch", "strapdown_columns", "attitude_half", "translation_half",
    "angle_trig", "rotation_entries", "numpy_backend",
]
