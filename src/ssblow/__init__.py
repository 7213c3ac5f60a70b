"""Phase-space toolkit for the localized self-similar blow-up profiles of
u_t = (u^m)_xx + |x|^sigma u^p in the critical regime m + p = 2, sigma > 2.

Every public name is imported from its module (ssblow.params, ssblow.field,
ssblow.integrate, ssblow.orbits, ssblow.profiles, ssblow.barriers,
ssblow.io, ssblow.cli); the package itself re-exports only
IntegrationControls, which callers read as ssblow.IntegrationControls.
"""

__version__ = "0.13.0"

from .integrate import IntegrationControls
