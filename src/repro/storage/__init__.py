"""Energy buffer substrate.

The battery-less system stores energy only in a small capacitor at the
solar node (Fig. 1).  :class:`~repro.storage.capacitor.Capacitor`
models it: charge/energy bookkeeping, the quadratic voltage-energy
relation the paper's eq. (6) and eq. (11) integrate over, and ESR.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.storage.capacitor import Capacitor

__all__ = ["Capacitor"]

__getattr__, __dir__ = lazy_exports(
    __name__,
    globals(),
    {
        "repro.storage.capacitor": ("Capacitor",),
    },
)
