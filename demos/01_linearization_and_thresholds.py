"""Linear story of the model: gains, growth coefficients, spectra, thresholds.

The linearization of the value dynamics at the undecided state (all values
zero) block-diagonalizes over four invariant subspaces.  This script builds
a configuration from prescribed per-subspace growth coefficients, checks the
per-subspace eigenvalues against the spectrum of the dense Jacobian matrix
(the field's Jacobian-vector product on the unit states), and reads off
which synchrony-breaking bifurcation comes first.
"""

import numpy as np

from indecision import (
    CriticalCoefficients,
    ModelConfig,
    NetworkShape,
    SigmoidParams,
    analytic_eigenvalues,
    bifurcation_threshold,
    coefficients_from_gains,
    gains_from_coefficients,
    interaction_matrix_det,
    jacobian,
)

shape = NetworkShape(4, 6)
print(f"network: {shape.m} agents x {shape.n} options")
print(f"det of the gain->coefficient matrix: {interaction_matrix_det(shape)} "
      f"(= -m^2 n^2, always invertible)\n")

# ask for a pure dissensus instability: only the doubly-zero-sum subspace grows
coeffs = CriticalCoefficients(c_d=1.0, c_c=-1.0, c_dl=-0.5, c_s=-0.5)
gains = gains_from_coefficients(coeffs, shape)
print("requested coefficients:", coeffs.as_tuple())
print("gains that realize them: alpha=%.4f beta=%.4f gamma=%.4f delta=%.4f"
      % gains.as_tuple())
print("round trip: (%g, %g, %g, %g)\n"
      % coefficients_from_gains(gains, shape).as_tuple())

for which in ("dissensus", "consensus", "deadlock", "sync"):
    t = bifurcation_threshold(coeffs, which)
    note = "first to destabilize" if t.first else (
        "reachable" if t.reachable else "never reached for increasing lambda")
    print(f"  {which:10s}: lambda* = {t.lam:+.3f}  ({note})")

lam = 1.05
cfg = ModelConfig(shape=shape, gains=gains, sigmoids=SigmoidParams(0.5, 0.3), lam=lam)
print(f"\nspectrum at the origin for lambda = {lam}:")
for val, mult in analytic_eigenvalues(coeffs, lam, shape):
    print(f"  eigenvalue {val:+.4f} with multiplicity {mult}")

J = jacobian(np.zeros((shape.m, shape.n)), cfg)
dense = np.sort(np.linalg.eigvals(J).real)
ana = np.sort([v for v, mult in analytic_eigenvalues(coeffs, lam, shape)
               for _ in range(mult)])
print(f"\nmax |Jacobian - analytic| over all {len(dense)} eigenvalues: "
      f"{np.abs(dense - ana).max():.2e}")
