"""lrlab: locality certificates, Lieb-Robinson bound audits, and adiabatic
evolution experiments for banded Hermitian matrix families."""

__version__ = "0.1.0"
