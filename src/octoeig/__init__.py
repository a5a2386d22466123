"""octoeig: octonionic operator calculus and eigensolvers.

Core pieces:

- :mod:`octoeig.octonion` -- exact octonion / complexified-octonion
  arithmetic and the literal text grammar;
- :mod:`octoeig.operators` -- left/right operator words, generalized
  operators and the faithful 8x8 real (or complex) matrix translation;
- :mod:`octoeig.linalg` -- self-contained dense eigensolver (Hessenberg
  + implicit double-shift QR, eigenvectors back-substituted on the
  Schur factor) and real LU solves;
- :mod:`octoeig.eigen` -- the coupled eigenproblem M xi = a xi - b eta,
  M eta = a eta + b xi, its complexified equivalent, right-eigenvalue
  verification and enumeration;
- :mod:`octoeig.hermiticity` -- octonionic inner products, the
  complex-projected product and operator classification;
- :mod:`octoeig.dirac` -- the octonionic Dirac representation checks.
"""

from .octonion import (
    ComplexOctonion,
    Octonion,
    OctonionParseError,
    format_complex_octonion,
    format_octonion,
    parse_complex_octonion,
    parse_octonion,
    structure_constant,
)
from .operators import (
    Factor,
    GeneralizedOperator,
    L,
    OperatorMatrix,
    OperatorMatrixFormatError,
    OperatorWord,
    R,
    basis_rank,
    matrix_to_generalized,
    operator_identity_check,
    parse_word,
)
from .linalg import (
    ConvergenceError,
    EigenPair,
    LinalgError,
    SingularMatrixError,
    complex_eigen,
    eigenvalues,
    eigenvector,
    lu_solve,
    real_schur,
)
from .eigen import (
    ComplexifiedSolution,
    CoupledCluster,
    CoupledSolution,
    RightEigenClaim,
    RightEigenCheck,
    coupled_clusters,
    eig_report,
    enumerate_basis_right_eigs,
    quaternionic_limit_check,
    solve_complexified,
    solve_coupled,
    verify_complexified,
    verify_coupled,
    verify_right_eigen,
)
from .hermiticity import (
    COMPLEX_PROJECTED,
    FULL,
    HermiticityReport,
    classify,
    complex_project,
    hermitian_spectrum_theorem_check,
    inner,
    survey_imaginary_units,
)
from .dirac import (
    DiracRep,
    dirac_algebra_check,
    dirac_representation,
    dispersion_check,
    orthogonal_doublet_check,
)

__version__ = "0.1.0"
