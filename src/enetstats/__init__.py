"""Elastic-net regularization paths with cross-validated penalty selection
and multivariate regression diagnostics."""

from .cv import CvResult, FoldAssignment, cross_validate, make_folds
from .dataprep import (
    RawTable,
    StandardizedMatrix,
    SubsetConfig,
    load_csv,
    select_variables,
    standardize,
)
from .dist import TailProbability, f_sf, t_sf
from .enet import (
    EnetConfig,
    EnetPath,
    fit_gaussian_path,
    fit_mgaussian_path,
    kkt_check,
)
from .inference import (
    MlmFit,
    fit_mlm,
    manova_table,
    pearson,
    univariate_summary,
    vif,
)

__version__ = "0.1.0"

__all__ = [
    "CvResult",
    "EnetConfig",
    "EnetPath",
    "FoldAssignment",
    "MlmFit",
    "RawTable",
    "StandardizedMatrix",
    "SubsetConfig",
    "TailProbability",
    "cross_validate",
    "f_sf",
    "fit_gaussian_path",
    "fit_mgaussian_path",
    "fit_mlm",
    "kkt_check",
    "load_csv",
    "make_folds",
    "manova_table",
    "pearson",
    "select_variables",
    "standardize",
    "t_sf",
    "univariate_summary",
    "vif",
]
