"""Numerical tolerances shared across the package.

A tolerance that more than one check reads is named here, once. A
threshold that only one check reads (the Jacobi thresholds, the fidelity
cut) stays beside that check. Values are absolute unless noted.
"""

# Maximum allowed |A - A^dagger| entry for a matrix passed off as Hermitian.
HERM_TOL = 1e-10

# Below this an eigenvalue is a genuine PSD violation, not roundoff.
PSD_FAIL = 1e-8

# A partial-transpose eigenvalue below -PPT_TOL means "entangled";
# anything in [-PPT_TOL, PPT_TOL] sits on the separability boundary
# and is reported as separable.
PPT_TOL = 1e-10

# A state vector's norm and a density operator's trace are 1 to this.
NORM_TOL = 1e-8

# Isometries must satisfy V^dagger V = I to this precision.
ISOMETRY_TOL = 1e-10

# Measurement outcomes with probability below this are null branches.
PROB_FLOOR = 1e-12

# Threshold scans: default grid size and bisection width.
SCAN_GRID = 200
SCAN_TOL = 1e-4
