"""Genera of Galois subcovers of the Skabelund maximal curves.

The two Skabelund curves are maximal curves over F_{q^4} (q an odd power of
2, the Suzuki family) and F_{q^6} (q an odd power of 3, the Ree family).
Every subgroup H of their automorphism groups yields a maximal quotient
curve whose genus follows from the Riemann-Hurwitz identity once the
different degree of the cover is known.  This package evaluates the known
closed forms with exact integer arithmetic, cross-validates each of them
against brute-force ramification oracles, and reproduces the published
genus tables.
"""

from .arith import divisors, factorize, valuation
from .catalog import (
    B0Cyclic,
    B0Dihedral,
    GenusRecord,
    N2NonSkew,
    N2SkewCyclic,
    N2SkewFull,
    NonIntegralGenusError,
    Psl28,
    SigmaCm,
    SubgroupDescriptor,
    enumerate_descriptors,
    enumerate_standard_exponents,
    subgroup_order_sigma,
)
from .curves import CurveParams, Family, ambient_genus, make_params, seven_divides_m
from .genus_ree import (
    genus_n2_nonskew,
    genus_n2_skew_cyclic,
    genus_n2_skew_full,
    genus_psl28,
    genus_sigma_cm_ree,
)
from .genus_suzuki import genus_b0_cyclic, genus_b0_dihedral, genus_sigma_cm_suzuki
from .spectrum import (
    SpectrumReport,
    compute_spectrum,
    render_csv,
    render_json,
    run_oracle_suite,
    validate_export,
    verify_tables,
)

__version__ = "0.1.0"

# the only kernel set; kept only because pipebench reads it
kernel_backend = "pure"

__all__ = [
    "B0Cyclic",
    "B0Dihedral",
    "CurveParams",
    "Family",
    "GenusRecord",
    "N2NonSkew",
    "N2SkewCyclic",
    "N2SkewFull",
    "NonIntegralGenusError",
    "Psl28",
    "SigmaCm",
    "SpectrumReport",
    "SubgroupDescriptor",
    "ambient_genus",
    "compute_spectrum",
    "divisors",
    "enumerate_descriptors",
    "enumerate_standard_exponents",
    "factorize",
    "genus_b0_cyclic",
    "genus_b0_dihedral",
    "genus_n2_nonskew",
    "genus_n2_skew_cyclic",
    "genus_n2_skew_full",
    "genus_psl28",
    "genus_sigma_cm_ree",
    "genus_sigma_cm_suzuki",
    "kernel_backend",
    "make_params",
    "render_csv",
    "render_json",
    "run_oracle_suite",
    "seven_divides_m",
    "subgroup_order_sigma",
    "validate_export",
    "valuation",
    "verify_tables",
]
