# Certified kernel-dimension estimates
# ====================================
#
# Multiplication by a matrix T over the algebra restricts to an operator
# between coefficient windows, W_{int_S(F)}^n -> W_F^n, with S the support
# of T. Its nullity delivers a certified two-sided estimate of the
# Murray-von Neumann kernel dimension:
#
#     lower = nullity / |F|      upper = lower + n |bd_S(F)| / |F|
#
# Everything is exact rational arithmetic for group providers, so the
# bracket is a proof, not an approximation.

from fractions import Fraction

from folnerlab import (MatrixOverPol, algebra_for, exact_mvn_dim_finite,
                       kernel_dim_estimate, rank_nullity, relative_dimension,
                       restricted_mult_matrix)

AZ = algebra_for("group:Z")
lap = AZ.group_element({-1: -1, 0: 2, 1: -1})   # the Z Laplacian 2 - g - g^-1
T = MatrixOverPol.from_element(lap)

print("Laplacian on Z, growing windows {-N..N}:")
for N in (5, 10, 20, 40):
    est = kernel_dim_estimate(T, range(-N, N + 1))
    print(f"  N={N:3d}  bracket [{est.lower}, {est.upper}]  "
          f"(nullity {est.nullity}, rank {est.rank})")
# The true kernel dimension is 0 (the symbol 2 - z - 1/z vanishes only at
# z = 1), and every bracket above contains it.

# On a finite provider the kernel dimension is exact (on a group ring, a sum
# over the blocks of the irreducible representations, the characters of
# Z/6 here), and the window estimate with F = Irred collapses onto it.
AZ6 = algebra_for("group:Z/6")
a6 = AZ6.group_element({0: 1, 1: -1})
T6 = MatrixOverPol.from_element(a6)
est = kernel_dim_estimate(T6, AZ6.ring.irreducibles())
print("\n1 - g on Z/6: estimate", (est.lower, est.upper),
      " exact", exact_mvn_dim_finite(T6))

# A projection has an exactly half-dimensional kernel.
AZ2 = algebra_for("group:Z/2")
p = AZ2.group_element({0: Fraction(1, 2), 1: Fraction(1, 2)})
print("(e+t)/2 on Z/2:", exact_mvn_dim_finite(MatrixOverPol.from_element(p)))

# The relative dimension of an explicitly spanned subspace of a window:
# a single matrix coefficient of the 2-dimensional irrep of S3 has
# dim_F = 1/6 over the full window (weighted size 6).
AS3 = algebra_for("finite:S3")
val = relative_dimension(AS3, [AS3.basis("std", 1, 1)], AS3.ring.irreducibles())
print("dim_F span{u^std_11} over Irred(S3):", val)

# The restricted operator itself is available, in the orthonormal basis
# {sqrt(n_a) u^a_{ij}}; here the 5 x 4 bidiagonal window matrix of 1 - g.
op = restricted_mult_matrix(MatrixOverPol.from_element(
    AZ.group_element({0: 1, 1: -1})), range(-2, 3))
print("restricted 1 - g on {-2..2}:", op.matrix.shape,
      "rank/nullity", rank_nullity(op.matrix))
