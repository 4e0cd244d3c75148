"""
Why the skew information is not a coherence measure for d >= 3
==============================================================

The skew information -1/2 tr([sqrt(rho), K]^2) looks like a coherence
quantifier, but its value depends on WHERE the off-diagonal structure sits
relative to the gaps of K, not only on how much of it there is.  Relabeling
the basis moves the weights across different gaps and can increase the
value, so monotonicity under incoherent channels fails.

On a pure state the value reduces to sum_{i<j} w_i w_j (k_i - k_j)^2 with
w_i the basis populations.  In dimension 2 there is a single pair, so every
relabeling is harmless; from dimension 3 on the asymmetry bites.
"""

from fractions import Fraction

import numpy as np

from coherence_lab import TrialConfig, check_criterion, reevaluate_witness, skew_violation_witness

# the deterministic counterexample: populations (1/2, 1/3, 1/6), K = diag(0,1,2)
witness = skew_violation_witness(3)
print("weights of the witness state:", np.round(np.diag(witness.state.matrix).real, 6))
print("relabeling:", witness.channel.perm)
print(f"value before: {witness.value_before:.12f}  (= {Fraction(17, 36)} = 17/36)")
print(f"value after:  {witness.value_after:.12f}  (= {Fraction(5, 9)} = 5/9)")
print(f"growth under an incoherent unitary: +{witness.value_after - witness.value_before:.6f}")

# hand check the two values with the closed form sum_{i<j} w_i w_j (k_i-k_j)^2
w = (Fraction(1, 6), Fraction(1, 2), Fraction(1, 3))
by_hand = sum(w[i] * w[j] * (i - j) ** 2 for i in range(3) for j in range(i + 1, 3))
print("closed form on (1/6, 1/2, 1/3):", by_hand)

# randomized search confirms the violation is generic, not hand-picked
c2 = check_criterion("C2", "skew", TrialConfig(dim=3, n_trials=100, seed=0))
print(f"\nrandom search at d=3: {c2.violations}/100 trials violate monotonicity")
before, after = reevaluate_witness(c2)
print(f"worst random witness: {before:.6f} -> {after:.6f}")

# dimension 2 is safe: a single pair (k_0-k_1)^2 cannot notice a relabeling
d2 = check_criterion("LEMMA1", "skew", TrialConfig(dim=2, n_trials=1000, seed=0))
print(f"d=2 relabeling invariance: {d2.violations}/1000 violations (single-pair symmetry)")
