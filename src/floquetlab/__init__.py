"""Floquet spectra of periodic Dirac and CMV operators, gap opening by
noncommutation, and thin-spectrum constructions."""

from . import analysis, cli, cmv, construct, dirac, errors, su11
from .analysis import (DimensionReport, Schedule, Stage, box_counting,
                       build_schedule, covering_count, gordon_defect,
                       hausdorff_distance, lebesgue_measure)
from .cmv import (ArcSet, VerblunskyCycle, cmv_bands, cmv_discriminant,
                  cmv_lyapunov, cmv_monodromy, extended_cmv_truncation,
                  poincare_delta, szego_matrix)
from .construct import (ConstructionReport, GapCertificate, GapSearchBudget,
                        cmv_open_gap, cmv_resolvent_cover, cover_kappa,
                        fit_decay_rate, open_gap, resolvent_cover,
                        thin_series, thin_spectrum, verify_gap_certificate)
from .dirac import (BandSet, PiecewisePotential, bands, discriminant,
                    dos_band_weight, dos_density, floquet_exponent, lyapunov,
                    monodromy, step_matrix, transfer)
from .su11 import (SearchBudget, SemigroupWord, Su11Class, cayley_to_sl2r,
                   classify, conjugate_to_rotation, disk_fixed_point,
                   gordon_lower_bounds, hyperbolic_in_semigroup, mobius_apply,
                   su11_defect)

__version__ = "0.1.0"
