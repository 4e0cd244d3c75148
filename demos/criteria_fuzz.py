"""
Randomized verification of the quantifier criteria
==================================================

A coherence measure is valid when it (C1) vanishes exactly on incoherent
states, (C2) never grows under incoherent channels, (C3) never grows on
average under subselection, and (C4) is convex.  The refinement (C5) asks
that only the maximally coherent states reach the maximal value.

This script fuzzes all of them for several measures and prints the verdicts.
"""

from coherence_lab import TrialConfig, check_criterion

cfg = TrialConfig(dim=3, n_trials=400, seed=0)

print("measure   criterion  trials  violations   worst slack")
for measure in ("l1", "rel_ent", "trivial"):
    for label in ("C1", "C2", "C3", "C4"):
        report = check_criterion(label, measure, cfg)
        print(f"{measure:<10}{label:<11}{report.trials:<8}{report.violations:<13}{report.worst_violation:.3e}")

# LEMMA1: relabeling unitaries preserve every valid measure's value
for measure in ("l1", "rel_ent", "trivial"):
    report = check_criterion("LEMMA1", measure, cfg)
    print(f"{measure:<10}{'LEMMA1':<11}{report.trials:<8}{report.violations:<13}{report.worst_violation:.3e}")

# C5: the maximum should sit exactly on the uniform-modulus states.
# the trivial measure FAILS here: any coherent state already attains value 1.
print()
for measure in ("l1", "rel_ent", "trivial"):
    report = check_criterion("C5", measure, TrialConfig(dim=3, n_trials=64))
    verdict = "PASS" if report.violations == 0 else "FAIL"
    print(f"C5 {measure:<9} max={report.max_value:.6f}  near-max non-MCS states: {report.violations}  -> {verdict}")

# LEMMA2 / THEOREM3: structure of the channels themselves
print()
lemma2 = check_criterion("LEMMA2", None, cfg)
print(f"LEMMA2  (no channel creates maximal coherence): violations={lemma2.violations}")
theorem3 = check_criterion("THEOREM3", None, TrialConfig(dim=3, n_trials=150, seed=0))
print(f"THEOREM3 (no non-unitary channel preserves values): violations={theorem3.violations}")
