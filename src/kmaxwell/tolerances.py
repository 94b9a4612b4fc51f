"""Shared numerical tolerances and audit parameters.

Single source of truth: the test suite, the audits, and the CLI manifests all
import these constants instead of re-declaring magic numbers, so every
threshold reported in a manifest traces back to this table.
"""

# Pointwise exterior-algebra identities evaluated in doubles.
IDENTITY_TOL = 1e-12

# Discrete Hodge against the fiber algebra on a single cell.
FIBER_MATCH_TOL = 1e-13

# Principal-symbol symmetry defect.
SYMBOL_SYMMETRY_TOL = 1e-13

# Band around zero used when counting symbol eigenvalues.
EIGEN_TOL = 1e-10

# Boundary subbundle verdicts (quadratic form, rank count, adjoint subspace).
ADMISSIBILITY_TOL = 1e-10

# Discrete summation-by-parts bookkeeping.
SBP_TOL = 1e-12

# Manufactured-solution convergence target and accepted deviation.
MMS_ORDER = 2.0
MMS_ORDER_WINDOW = 0.3

# Relative drift of constraint norms over an evolve run.
CONSTRAINT_DRIFT_TOL = 1e-6

# Boundary trace residual relative to the state norm.
BOUNDARY_RESIDUAL_TOL = 1e-6

# Field magnitude outside the causal cone, relative to the state norm.
CONE_LEAK_TOL = 1e-7

# Halo (in units of the largest cell width) added to the causal cone.
CONE_HALO_CELLS = 4.0

# Green-operator right-inverse and exact-sequence defects on the 16^2 grid.
GREEN_DEFECT_TOL = 5e-3

# Accepted deviation of the defect ratio from 1/2 under grid refinement.
GREEN_HALVING_WINDOW = 0.3

# Pre-symplectic pairing: skew-symmetry of single evaluations.
SKEW_TOL = 1e-10

# Pre-symplectic pairing: skew and cutoff independence across random pairs.
PRESYMPLECTIC_REL_TOL = 1e-9

# Agreement of the source-side pairing with the solution-side pairing.
SOURCE_FORM_AGREEMENT_TOL = 5e-3

# Forward degeneracy probes, relative to the probe/gauge norms.
DEGENERACY_TOL = 5e-3

# Declared source pairs: discrete continuity residuals at declaration.
SOURCE_COMPAT_TOL = 1e-10

# Initial-data closedness checked by validate_problem.
CLOSEDNESS_TOL = 1e-12

# Initial-data magnitude allowed near the boundary faces by validate_problem.
SUPPORT_TOL = 1e-12

# Discrete continuity residuals of the sources checked by validate_problem.
CONTINUITY_TOL = 1e-8

# Energy conservation over 100 steps, periodic mode, unit lapse.
ENERGY_DRIFT_TOL = 1e-8

# Joint linearity of the evolution map.
LINEARITY_TOL = 1e-12
