"""Exact entropy and zeta-function computations for endomorphisms of
function-field tori.

The pipeline: build GF(q) with make_field, write a matrix over F[t] as
Poly entries, then ask dynamics for entropy and periodic-point counts and
zeta for the classification, closed form, and series.
"""

__version__ = "0.1.0"

from .dynamics import (
    Entropy,
    NkValue,
    entropy,
    fixed_points_bruteforce,
    fixed_points_smith,
    nk_direct,
    nk_spectral,
    nk_table,
    system_data,
)
from .gf import Field, elem_order, make_field, order_of_root
from .newton import NewtonPolygon, polygon, unit_residual
from .polycore import Poly, factor, modpow, poly_gcd, polyring, resultant
from .polymat import SmithForm, charpoly, companion, det, matpow_minus_I, smith
from .spectral import SpectralData, rou_orders, rou_split, spectral_data
from .zeta import (
    SeriesTrunc,
    TranscendenceCertificate,
    ZetaClosedForm,
    ZetaResult,
    classify,
    closed_form,
    nk_from_series,
    series_from_closed_form,
    series_from_nk,
)

__all__ = [
    "__version__",
    "Entropy",
    "Field",
    "NewtonPolygon",
    "NkValue",
    "Poly",
    "SeriesTrunc",
    "SmithForm",
    "SpectralData",
    "TranscendenceCertificate",
    "ZetaClosedForm",
    "ZetaResult",
    "charpoly",
    "classify",
    "closed_form",
    "companion",
    "det",
    "elem_order",
    "entropy",
    "factor",
    "fixed_points_bruteforce",
    "fixed_points_smith",
    "make_field",
    "matpow_minus_I",
    "modpow",
    "nk_direct",
    "nk_from_series",
    "nk_spectral",
    "nk_table",
    "order_of_root",
    "poly_gcd",
    "polygon",
    "polyring",
    "resultant",
    "rou_orders",
    "rou_split",
    "series_from_closed_form",
    "series_from_nk",
    "smith",
    "spectral_data",
    "system_data",
    "unit_residual",
]
