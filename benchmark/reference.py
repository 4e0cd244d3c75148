"""Independent numpy reference for checking coherence-lab outputs.

Nothing here imports ``coherence_lab``: every value is recomputed from the
JSON the program prints, with LAPACK (``numpy.linalg.eigh``) for all spectral
work.  Entropies are in bits with 0 log 0 = 0.  Density matrices are complex
``(d, d)`` arrays; the observable of the skew information is
``K = diag(0, 1, ..., d-1)``, the program's default.
"""

from __future__ import annotations

import numpy as np

# Eigenvalues at or below this share of the largest are taken as exact zeros
# before a square root.  eigh leaves O(d * eps) noise on the zero eigenvalues
# of a singular state, and sqrt(1e-16) = 1e-8 would swamp a 1e-9 comparison.
SQRT_CLAMP = 1e-13

# A state is pure when its purity is within this of 1.
PURE_TOL = 1e-9

# A state is incoherent when its off-diagonal l1 mass is at most this.
INCOHERENT_TOL = 1e-9

# Branches of a selective channel with probability at or below this are dropped.
PROB_FLOOR = 1e-14

# Eigenvalues at or below this are left out of the eigen-ensemble.
RANK_TOL = 1e-12

MEASURES = ("l1", "rel_ent", "int_rand", "skew", "trivial")


def entropy(probs) -> float:
    """Shannon entropy in bits; zero and negative round-off entries are dropped."""
    p = np.asarray(probs, dtype=np.float64).reshape(-1)
    p = p[p > 0.0]
    return float(-(p * np.log2(p)).sum())


def binary_entropy(x: float) -> float:
    return entropy([x, 1.0 - x])


def density_from_json(payload: dict) -> np.ndarray:
    """Density matrix of a state in the program's JSON format (pure or density)."""
    dim = int(payload["dim"])
    data = np.asarray(payload["re"], dtype=np.float64) + 1j * np.asarray(
        payload["im"], dtype=np.float64
    )
    if payload["kind"] == "pure":
        return np.outer(data, data.conj())
    if payload["kind"] == "density":
        return data.reshape(dim, dim)
    raise ValueError(f"unknown state kind {payload['kind']!r}")


def density_to_json(rho: np.ndarray) -> dict:
    """The program's JSON state format for a density matrix (row-major)."""
    return {
        "dim": int(rho.shape[0]),
        "kind": "density",
        "re": rho.real.reshape(-1).tolist(),
        "im": rho.imag.reshape(-1).tolist(),
    }


def kraus_from_json(payload: dict) -> list:
    """Kraus operators of a channel in JSON: a ``kraus`` list, or a ``perm``/``phases`` pair.

    The pair describes the unitary sum_j e^{i phases[j]} |perm[j]><j|.
    """
    dim = int(payload["dim"])
    if "kraus" in payload:
        return [
            (np.asarray(k["re"], dtype=np.float64) + 1j * np.asarray(k["im"], dtype=np.float64))
            .reshape(dim, dim)
            for k in payload["kraus"]
        ]
    u = np.zeros((dim, dim), dtype=np.complex128)
    u[np.asarray(payload["perm"]), np.arange(dim)] = np.exp(1j * np.asarray(payload["phases"]))
    return [u]


def apply_kraus(ops, rho: np.ndarray) -> np.ndarray:
    return sum(k @ rho @ k.conj().T for k in ops)


def selective_branches(ops, rho: np.ndarray) -> list:
    """[(p_n, K_n rho K_n^dagger / p_n)] for the branches above ``PROB_FLOOR``."""
    out = []
    for k in ops:
        raw = k @ rho @ k.conj().T
        p = float(np.trace(raw).real)
        if p > PROB_FLOOR:
            out.append((p, raw / p))
    return out


def dephase(rho: np.ndarray) -> np.ndarray:
    return np.diag(np.diag(rho))


def purity(rho: np.ndarray) -> float:
    return float(np.vdot(rho, rho).real)


# ---------------------------------------------------------------------------
# measures
# ---------------------------------------------------------------------------


def l1(rho: np.ndarray) -> float:
    """Summed moduli of the off-diagonal entries."""
    a = np.abs(rho)
    return float(a.sum() - np.trace(a))


def rel_ent(rho: np.ndarray) -> float:
    """H(diag rho) - H(spectrum rho)."""
    return entropy(np.diag(rho).real) - entropy(np.linalg.eigvalsh(rho))


def psd_sqrt(rho: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(rho)
    root = np.sqrt(np.where(w > SQRT_CLAMP * max(1.0, w[-1]), w, 0.0))
    return (v * root) @ v.conj().T


def skew(rho: np.ndarray) -> float:
    """-1/2 tr([sqrt(rho), K]^2) with K = diag(0..d-1), from the commutator itself."""
    k = np.arange(rho.shape[0], dtype=np.float64)
    s = psd_sqrt(rho)
    comm = s * k[None, :] - k[:, None] * s  # S K - K S
    return float(-0.5 * np.trace(comm @ comm).real)


def trivial(rho: np.ndarray) -> float:
    return 0.0 if l1(rho) <= INCOHERENT_TOL else 1.0


def int_rand_qubit(rho: np.ndarray) -> float:
    """Closed form h((1 + sqrt(1 - 4|rho_01|^2)) / 2) of the convex roof for qubits.

    Yuan, Zhou, Cao & Ma, PRA 92, 022124 (2015).
    """
    if rho.shape != (2, 2):
        raise ValueError("the closed form holds for qubits only")
    c2 = float(abs(rho[0, 1]) ** 2)
    return binary_entropy((1.0 + np.sqrt(max(0.0, 1.0 - 4.0 * c2))) / 2.0)


def eigen_ensemble_bound(rho: np.ndarray) -> float:
    """sum_k q_k H(|v_k|^2) over the eigen-ensemble: an upper bound on the convex roof."""
    w, v = np.linalg.eigh(rho)
    keep = w > RANK_TOL
    q = w[keep] / w[keep].sum()
    return float(sum(qk * entropy(np.abs(v[:, k]) ** 2) for qk, k in zip(q, np.nonzero(keep)[0])))


def int_rand(rho: np.ndarray) -> float:
    """Exact where it is known: rel_ent on pure states, the closed form on qubits."""
    if purity(rho) >= 1.0 - PURE_TOL:
        return rel_ent(rho)
    return int_rand_qubit(rho)


def measure(name: str, rho: np.ndarray) -> float:
    return {"l1": l1, "rel_ent": rel_ent, "int_rand": int_rand, "skew": skew, "trivial": trivial}[
        name
    ](rho)


def max_value(name: str, dim: int) -> float:
    """Largest value of a measure at dimension ``dim``.

    ``d-1`` for l1, ``log2 d`` for rel_ent and int_rand, 1 for the 0/1 trivial
    measure, and ``(d-1)^2/4`` for skew: on pure states the skew information is
    the variance of K in the distribution |psi_i|^2, largest with half the
    weight on each end of diag(0..d-1).
    """
    if name == "l1":
        return dim - 1.0
    if name in ("rel_ent", "int_rand"):
        return float(np.log2(dim))
    if name == "skew":
        return (dim - 1.0) ** 2 / 4.0
    if name == "trivial":
        return 1.0
    raise ValueError(f"unknown measure {name!r}")


def mcs_distance(rho: np.ndarray) -> float:
    """Infidelity of a pure state to the nearest maximally coherent state.

    The best overlap of |psi> with (1/sqrt d) sum_j e^{i t_j}|j> is
    (sum_j |psi_j|)^2 / d, reached by matching the phases; so the distance is
    0 exactly on uniform-modulus states.  Mixed inputs raise ValueError.
    """
    if purity(rho) < 1.0 - PURE_TOL:
        raise ValueError("mcs_distance needs a pure state")
    w, v = np.linalg.eigh(rho)
    amp = np.abs(v[:, -1])
    return float(1.0 - amp.sum() ** 2 / rho.shape[0])
