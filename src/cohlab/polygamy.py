"""Coherence-distribution inequalities for bipartite and multipartite states.

The pure-state product bound ``1 - C(AB) <= [1-C(A)][1-C(B)]`` extends to
mixed states through a chain of theorems whose coefficients (minimal nonzero
eigenvalue, rank, eigenstate marginal coherences) are collected per state in
a :class:`PolygamyRecord`.  The plain product form fails on mixed states of
every size: the two-qubit mixture of ``find_qubit_violations``, embedded in
2x3, 3x3 or 4x4 and mixed with 1e-3 of the maximally mixed state, is full
rank with gap -2.3e-3, -2.0e-3 or -1.8e-3; the sweeps tell it from the rest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coherence import _c_skew_of, c_skew
from .errors import BadPartition, NegativeCount, NotPure
from .linalg import RANK_TOL, DensityMatrix, _chunks, _clean_spectrum, _dims, _index, _partial_trace
from .linalg import _spectrum, _subsystem_dims, _validated, partial_trace, validate_density
from .rand import _child_rngs, _normalized_gram, _seed, child_rng

PURITY_TOL = 1e-8
GAP_TOL = 1e-9
JITTER = 0.01  # standard deviation of find_qubit_violations' perturbations of the fixture


def pure_polygamy_gap(psi: DensityMatrix, dims) -> float:
    """Gap [1-C(A)][1-C(B)] - [1-C(AB)] for a pure bipartite state.

    Non-negative for every pure state and zero exactly on product states.
    """
    record = bipartite_record(psi, dims)
    if psi.purity() < 1.0 - PURITY_TOL:
        raise NotPure(f"purity {psi.purity():.10f} below pure-state threshold")
    return record.gap_pure_form


def _eigenstate_marginal_coherences(w: np.ndarray, v: np.ndarray, dims):
    """Ranks r and summed c_skew of both marginals of the eigenstates of (w, v) stacks.

    Each eigenvector above the rank tolerance is a ``dims`` amplitude matrix psi,
    transposed if need be so that its rows are the smaller side.  One eigh of
    psi psi^dag = sum_m s_m u_m u_m^dag gives that side's c_skew; the other
    marginal has eigenvectors psi^T u_m^* / sqrt(s_m) on the same weights, so its
    c_skew is ``_c_skew_of`` at 1/s_m over the weights ``_clean_spectrum`` keeps.
    An SVD of psi agrees within 1e-12 down to weights of 1e-7 (eigh's roundoff
    1e-16 in s_m shows as 1e-16 / sqrt(s_m)); rank groups sum over exactly r terms.
    """
    flip = dims[0] > dims[1]
    ranks = np.count_nonzero(w > RANK_TOL, axis=-1)
    sums = np.empty((2,) + ranks.shape)
    for r in np.unique(ranks):
        group = ranks == r
        psi = v[group][..., :r].swapaxes(-1, -2).reshape(-1, r, *dims)
        psi = psi.swapaxes(-1, -2) if flip else psi
        s, u = np.linalg.eigh(np.einsum("...bk,...ck->...bc", psi, psi.conj()))
        s = _clean_spectrum(s)
        inv = np.divide(1.0, s, out=np.zeros_like(s), where=s > 0.0)
        for larger, spectrum in enumerate([(s, u), (inv, psi.swapaxes(-1, -2) @ u.conj())]):
            sums[larger ^ flip, group] = np.sum(_c_skew_of(*spectrum), axis=-1)
    return ranks, sums[0], sums[1]


@dataclass(frozen=True)
class PolygamyRecord:
    """Coherence bookkeeping of one bipartite state in the fixed basis."""

    dims: tuple
    c_joint: float
    c_a: float
    c_b: float
    gap_pure_form: float
    lambda_min: float
    rank: int
    sum_eig_coh_a: float
    sum_eig_coh_b: float
    c_s: float
    diag_sq_sum: float
    eigenvalues: tuple

    # inequality gaps; each is >= -tol whenever the corresponding relation holds
    def gap_marginal_vs_diag(self) -> float:
        return (1.0 - self.c_a) * (1.0 - self.c_b) - self.diag_sq_sum

    def gap_diag_vs_lambda(self) -> float:
        return self.diag_sq_sum - self.lambda_min * (1.0 - self.c_joint)

    def gap_rank_a(self) -> float:
        return (self.rank - self.sum_eig_coh_a) * (1.0 - self.c_b) - (1.0 - self.c_joint)

    def gap_rank_b(self) -> float:
        return (1.0 - self.c_a) * (self.rank - self.sum_eig_coh_b) - (1.0 - self.c_joint)

    def gap_symmetric(self) -> float:
        return (1.0 - self.c_a) * (1.0 - self.c_b) - (1.0 - self.c_joint) ** 2 / self.c_s

    def theorem_gaps(self) -> dict:
        """The four proven mixed-state inequality gaps."""
        return {
            "marginal_vs_diag": self.gap_marginal_vs_diag(),
            "diag_vs_lambda": self.gap_diag_vs_lambda(),
            "rank_a": self.gap_rank_a(),
            "rank_b": self.gap_rank_b(),
            "symmetric": self.gap_symmetric(),
        }


def _records(mat: np.ndarray, w: np.ndarray, v: np.ndarray, dims) -> list:
    """Records of a stack of validated ``dims`` states ``(mat, w, v)``, one call per step."""
    coherences = [_c_skew_of(w, v)]  # then of the marginals on A and on B
    coherences += [_c_skew_of(*_spectrum(_partial_trace(mat, dims, [k]))) for k in (0, 1)]
    ranks, sum_a, sum_b = _eigenstate_marginal_coherences(w, v, dims)
    d = mat.diagonal(axis1=-2, axis2=-1).real
    diag_sq = (d[..., None, :] @ d[..., :, None])[..., 0, 0]
    lambda_min = np.where(w > RANK_TOL, w, np.inf).min(axis=-1)
    columns = [c.tolist() for c in coherences + [lambda_min, ranks, sum_a, sum_b, diag_sq, w]]
    return [
        PolygamyRecord(dims, c_ab, c_a, c_b, (1.0 - c_a) * (1.0 - c_b) - (1.0 - c_ab),
                       lam, r, s_a, s_b, (r - s_a) * (r - s_b), dsq, tuple(eigenvalues))
        for c_ab, c_a, c_b, lam, r, s_a, s_b, dsq, eigenvalues in zip(*columns)
    ]


def bipartite_record(rho_ab: DensityMatrix, dims) -> PolygamyRecord:
    """Collect marginal coherences, eigenstate sums and inequality inputs."""
    return _records(rho_ab.mat[None], rho_ab.eigenvalues[None], rho_ab.eigenvectors[None],
                    _subsystem_dims(rho_ab, dims, 2))[0]


def _is_leaf(node) -> bool:
    return all(isinstance(x, (int, np.integer)) for x in node)


def _walk(node, depth: int, splits: list) -> tuple:
    """Sorted subsystem indices below a tree node, appending its splits in pre-order.

    A leaf is a non-empty tuple of indices and every other node a pair of
    nodes; anything else raises ``BadPartition``.  Each pair appends
    ``(node, left, right, depth)`` with the sorted indices of both children.
    """
    if isinstance(node, (int, np.integer)):
        raise BadPartition(f"subsystem {node} must sit in a leaf tuple")
    try:
        leaf = _is_leaf(node)
    except TypeError as exc:  # not iterable
        raise BadPartition(f"tree node {node!r} is neither a leaf nor a split") from exc
    if leaf:
        if not node:
            raise BadPartition("a leaf must list at least one subsystem")
        return tuple(sorted(node))
    if len(node) != 2:
        raise BadPartition("internal nodes must be bipartite splits")
    at = len(splits)
    splits.append(None)  # the children's splits follow this one
    left, right = (_walk(child, depth + 1, splits) for child in node)
    splits[at] = (node, left, right, depth)
    return tuple(sorted(left + right))


def partition_check(rho: DensityMatrix, dims, tree) -> dict:
    """Evaluate both multipartite distribution inequalities on a nested split.

    ``tree`` is a nested pair structure over subsystem indices, e.g.
    ``((0,), ((1,), (2,)))`` splits 0|12 and then 1|2; leaves may list their
    subsystems in any order.  Each split s, at depth d_s, is a bipartite
    record of the node's reduced state with the left block first.  The
    product form is prod_leaves (1 - C_leaf) >= lambda_M (1 - C) with
    lambda_M = prod_s lambda_min(s); the symmetric form is prod_leaves
    (1 - C_leaf)^e_leaf >= (1 - C)^2 / c_ST with c_ST = prod_s c_s(s)^(2^-d_s),
    where e_leaf is 2^-d_s of the leaf's parent split.  Both allow ``GAP_TOL``.
    """
    dims = _subsystem_dims(rho, dims)
    n = len(dims)
    nodes = []
    blocks = _walk(tree, 0, nodes)
    if not nodes:
        raise BadPartition("tree root must split into at least two blocks")
    if blocks != tuple(range(n)):
        raise BadPartition(f"leaves of {tree} do not partition 0..{n - 1}")

    leaf_coh, exponents, splits = {}, {}, []
    for node, left, right, depth in nodes:
        subs = tuple(sorted(left + right))
        st = rho if len(subs) == n else partial_trace(rho, dims, subs)
        # basis index of the reordered state -> index of st; the spectrum is unchanged
        perm = np.arange(st.dim).reshape([dims[i] for i in subs])
        perm = perm.transpose([subs.index(i) for i in left + right]).ravel()
        d_left = math.prod(dims[i] for i in left)
        rec = _records(st.mat[np.ix_(perm, perm)][None], st.eigenvalues[None],
                       st.eigenvectors[perm][None], (d_left, st.dim // d_left))[0]
        splits.append({"subsystems": subs, "split": (left, right),
                       "lambda_min": rec.lambda_min, "c_s": rec.c_s, "exponent": 0.5**depth})
        for child, c_child in zip(node, (rec.c_a, rec.c_b)):
            if _is_leaf(child):
                leaf_coh[tuple(child)] = c_child
                exponents[tuple(child)] = 0.5**depth

    lambda_m = math.prod(s["lambda_min"] for s in splits)
    c_st = math.prod(s["c_s"] ** s["exponent"] for s in splits)
    one_minus_joint = 1.0 - c_skew(rho)
    lhs_lambda = math.prod(1.0 - c for c in leaf_coh.values())
    lhs_sym = math.prod((1.0 - leaf_coh[l]) ** exponents[l] for l in leaf_coh)
    return {
        "leaf_coherences": leaf_coh,
        "exponents": exponents,
        "splits": splits,
        "lhs_product": lhs_lambda,
        "lambda_m": lambda_m,
        "ok_lambda_form": lhs_lambda >= lambda_m * one_minus_joint - GAP_TOL,
        "lhs_symmetric": lhs_sym,
        "c_st": c_st,
        "ok_symmetric_form": lhs_sym >= one_minus_joint**2 / c_st - GAP_TOL,
    }


def sweep_polygamy(dims, n_samples: int, seed: int) -> list:
    """Seeded sweep of bipartite records over Ginibre mixed states, in stacks.

    Record ``i`` equals ``bipartite_record`` of the state drawn from ``child_rng(seed, i)``;
    ``_child_rngs`` seeds each chunk's generators at once.
    """
    seed = _seed(seed)
    da, db = _dims(dims, 2)
    n_samples = _index(n_samples)
    if n_samples < 0:
        raise NegativeCount(f"sample count {n_samples} is negative")
    dim = da * db
    records = []
    for chunk in _chunks(n_samples, dim * dim):
        # real then imaginary parts in one call, the values of ginibre_mixed's two calls
        z = np.stack([rng.standard_normal((2, dim, dim)) for rng in _child_rngs(seed, chunk)])
        records += _records(*_validated(_normalized_gram(z[:, 0] + 1j * z[:, 1])), (da, db))
    return records


def sweep_summary(records) -> dict:
    """Gap statistics of a sweep; with no records the gaps are ``None``."""
    gaps = np.array([r.gap_pure_form for r in records])
    theorem_gaps = [r.theorem_gaps() for r in records]
    names = theorem_gaps[0] if theorem_gaps else ()
    return {
        "samples": len(records),
        "min_gap": float(gaps.min()) if len(gaps) else None,
        "mean_gap": float(gaps.mean()) if len(gaps) else None,
        "violations": int(np.count_nonzero(gaps < 0.0)),
        "theorem_min_gaps": {name: min(g[name] for g in theorem_gaps) for name in names},
    }


def find_qubit_violations(seed: int, n_trials: int = 50) -> list:
    """Search near the bundled two-qubit mixture for pure-form violations.

    Trial 0 is the unperturbed fixture; later trials jitter the mixing weight
    and the component vectors.  Returns (trial index, record) pairs with a
    strictly negative pure-form gap.  A negative seed or ``n_trials`` raises
    ``NegativeCount`` and a non-integer one ``DimensionMismatch``.
    """
    from .fixtures import qubit_mixture_counterexample

    seed, n_trials = _seed(seed), _index(n_trials)
    if n_trials < 0:
        raise NegativeCount(f"trial count {n_trials} is negative")
    base = qubit_mixture_counterexample()
    found = []
    for i in range(n_trials):
        rng = child_rng(seed, i)
        if i == 0:
            p, v1, v2 = base["p"], base["psi1"], base["psi2"]
        else:
            p = float(np.clip(base["p"] + JITTER * rng.standard_normal(), 1e-3, 1.0 - 1e-3))
            v1 = base["psi1"] + JITTER * rng.standard_normal(4)
            v2 = base["psi2"] + JITTER * rng.standard_normal(4)
            v1 = v1 / np.linalg.norm(v1)
            v2 = v2 / np.linalg.norm(v2)
        mix = p * np.outer(v1, np.conj(v1)) + (1.0 - p) * np.outer(v2, np.conj(v2))
        rec = bipartite_record(validate_density(mix), (2, 2))
        if rec.gap_pure_form < -1e-12:
            found.append((i, rec))
    return found
