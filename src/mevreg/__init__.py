"""Multiple Eisenstein values and modular regulator integrals on Y(N).

Numerical library and CLI for regularised iterated integrals of Eisenstein
series along the imaginary axis, the associated K_2/K_4 regulator integrals,
their L-value expressions, and standalone verifiers for the underlying
q-series identities.
"""

from mevreg.eisenstein import (
    EisensteinSpec,
    EllipticParam,
    TauQSeries,
    e_series,
    eichler_series,
    g_series,
    gn_series,
    h_series,
    log_siegel_series,
)
from mevreg.mev import (
    MevResult,
    lambda_general,
    lambda_mev,
    lambda_signed,
    lambda_single_closed,
)
from mevreg.mellin import (
    MellinResult,
    im_i_direct,
    im_i_rz,
    l_deriv_weight2_at_minus1,
    mellin_eisenstein_closed,
    mellin_numeric,
)
from mevreg.regulator import (
    RegulatorReport,
    beilinson,
    dg_da2,
    goncharov_lvalue,
    goncharov_mev,
    k2_regulator,
    regulator_report,
)

__all__ = [
    "EisensteinSpec",
    "EllipticParam",
    "MellinResult",
    "MevResult",
    "RegulatorReport",
    "TauQSeries",
    "beilinson",
    "dg_da2",
    "e_series",
    "eichler_series",
    "g_series",
    "gn_series",
    "goncharov_lvalue",
    "goncharov_mev",
    "h_series",
    "im_i_direct",
    "im_i_rz",
    "k2_regulator",
    "l_deriv_weight2_at_minus1",
    "lambda_general",
    "lambda_mev",
    "lambda_signed",
    "lambda_single_closed",
    "log_siegel_series",
    "mellin_eisenstein_closed",
    "mellin_numeric",
    "regulator_report",
]

__version__ = "0.1.0"
