"""wcoset: an exact workbench for screening kernels of W-(super)algebra cosets.

Free-field systems, exact mode/OPE computations, screening residues as graded
rational-linear maps, and verification suites for the subregular/principal
coset dualities and their Kazama-Suzuki inversions.
"""

from .scalars import Rat, RatFun, T, linear_zeros
from .fock import (FockState, Momentum, Species, System, enumerate_basis, graded_dimension,
                   normal_form)
from .fields import (ExpOp, Gen, NormOrd, Scale, Sum, current_gram, exp_op, l0_apply,
                     mode_apply, ope_singular, state_of_field)
from .screening import (GradedMap, ScreeningOp, annihilates,
                        compose_check, joint_kernel, residue_map)

__version__ = "0.1.0"
