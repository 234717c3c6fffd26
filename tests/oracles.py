"""Independent oracles used across the test suite.

These deliberately avoid the package's computational paths: square roots go
through a singular value decomposition, skew quantities through literal commutator
traces, the Fisher information through a fidelity finite difference, and the
discord through an exhaustive product-basis grid with local grid refinement or,
for a qubit A, the local-quantum-uncertainty closed form; its pair rotation is
checked against the fancy-index copy kernel it replaced.  The monotonicity
reference checks one sample at a time through the single-state channel maps,
and the partition reference multiplies per-split factors from explicit partial
traces by its own recursion.

The file also holds the seeded test inputs that no cohlab command needs:
Haar pure states and unitaries, random Hermitian matrices, and state files.
Like the references, they import cohlab inside their bodies, so the file
also loads on its own.
"""

import json

import numpy as np

PAULIS = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def psd_sqrt(mat):
    """U diag(sqrt(s)) U^dag from the SVD U diag(s) V^dag of a PSD matrix.

    On the support the left singular vectors are eigenvectors.  Singular
    values below the numerical-rank tolerance of ``np.linalg.matrix_rank``
    are roundoff of zero eigenvalues and count as zero; their square roots
    (~3e-9) would otherwise show in every rank-deficient result.
    """
    u, s, _ = np.linalg.svd(np.asarray(mat, dtype=complex))
    s = np.where(s > s[0] * len(s) * np.finfo(float).eps, s, 0.0)
    r = (u * np.sqrt(s)) @ u.conj().T
    return (r + r.conj().T) / 2.0


def skew_info_commutator(mat, k):
    """-1/2 Tr [sqrt(rho), |k><k|]^2 via literal matrix products."""
    s = psd_sqrt(mat)
    p = np.zeros_like(s)
    p[k, k] = 1.0
    c = s @ p - p @ s
    return float(-0.5 * np.trace(c @ c).real)


def k_coherence_commutator(mat, kobs):
    s = psd_sqrt(mat)
    c = s @ kobs - kobs @ s
    return float(-0.5 * np.trace(c @ c).real)


def subsystem_coherence_commutator(mat, dims, u=None):
    """Sum over k of -1/2 Tr [sqrt(rho), U|k><k|U^dag (x) I]^2."""
    da, db = dims
    s = psd_sqrt(mat)
    u = np.eye(da, dtype=complex) if u is None else u
    total = 0.0
    for k in range(da):
        pk = np.outer(u[:, k], u[:, k].conj())
        proj = np.kron(pk, np.eye(db))
        c = s @ proj - proj @ s
        total += -0.5 * np.trace(c @ c).real
    return float(total)


def product_coherence_commutator(mat, dims, ua=None, ub=None):
    da, db = dims
    s = psd_sqrt(mat)
    ua = np.eye(da, dtype=complex) if ua is None else ua
    ub = np.eye(db, dtype=complex) if ub is None else ub
    total = 0.0
    for k in range(da):
        for kp in range(db):
            proj = np.kron(
                np.outer(ua[:, k], ua[:, k].conj()),
                np.outer(ub[:, kp], ub[:, kp].conj()),
            )
            c = s @ proj - proj @ s
            total += -0.5 * np.trace(c @ c).real
    return float(total)


def schmidt_marginal_coherences(vectors, dims, left):
    """Summed skew coherence of both marginals of each column of ``vectors``.

    Each column is reshaped into a (d_left, d_right) amplitude matrix
    psi = U S V^dag (SVD), so sqrt(rho_left) = U S U^dag and
    sqrt(rho_right) = V^* S V^T with S normalized to unit length; no
    eigendecomposition is involved.  ``left`` lists the subsystem positions
    of the first block.  Returns (sum over columns of C(left), of C(right)).
    """
    dims = list(dims)
    right = [i for i in range(len(dims)) if i not in left]
    d_left = int(np.prod([dims[i] for i in left]))
    sum_left = sum_right = 0.0
    for v in np.asarray(vectors).T:
        psi = v.reshape(dims).transpose(list(left) + right).reshape(d_left, -1)
        u, s, vh = np.linalg.svd(psi)
        s = s / np.linalg.norm(s)
        k = len(s)
        diag_left = (np.abs(u[:, :k]) ** 2) @ s
        diag_right = (np.abs(vh[:k, :]) ** 2).T @ s
        sum_left += 1.0 - float(diag_left @ diag_left)
        sum_right += 1.0 - float(diag_right @ diag_right)
    return sum_left, sum_right


def _reduced(mat, dims, keep):
    """Partial trace onto the sorted subsystem positions ``keep`` by one literal einsum."""
    n = len(dims)
    letters = [chr(ord("a") + i) for i in range(2 * n)]
    cols = [letters[n + i] if i in keep else letters[i] for i in range(n)]
    kept = [letters[i] for i in keep] + [cols[i] for i in keep]
    spec = "".join(letters[:n] + cols) + "->" + "".join(kept)
    d = int(np.prod([dims[i] for i in keep]))
    return np.einsum(spec, np.asarray(mat).reshape(list(dims) * 2)).reshape(d, d)


def _skew_coherence(mat):
    return 1.0 - float(np.sum(np.diag(psd_sqrt(mat)).real ** 2))


def partition_reference(mat, dims, tree, rank_tol=1e-10, gap_tol=1e-9):
    """Both sides and verdicts of the two multipartite forms of a nested split.

    Recurses over ``tree`` (pairs of nodes; leaves are tuples of subsystem
    indices).  Each split's reduced state is an explicit partial trace of
    ``mat``; its lambda_min is the least ``eigvalsh`` eigenvalue above
    ``rank_tol`` and its c_s is (r - S_left)(r - S_right) with the sums of
    ``schmidt_marginal_coherences`` over its kept eigenvectors.  Leaf
    coherences go through ``psd_sqrt``.  The factors of a split at depth d,
    and the leaves it holds directly, enter the symmetric form at 2^-d.
    """
    one_minus_joint = 1.0 - _skew_coherence(mat)
    out = {"lhs_product": 1.0, "lambda_m": 1.0, "lhs_symmetric": 1.0, "c_st": 1.0}

    def is_leaf(node):
        return all(isinstance(x, (int, np.integer)) for x in node)

    def blocks(node):
        return sorted(node) if is_leaf(node) else sorted(blocks(node[0]) + blocks(node[1]))

    def split(node, depth):
        left, right = blocks(node[0]), blocks(node[1])
        subs = sorted(left + right)
        st = _reduced(mat, dims, subs)
        w, v = np.linalg.eigh(st)
        kept = v[:, w > rank_tol]
        r = kept.shape[1]
        sum_l, sum_r = schmidt_marginal_coherences(kept, [dims[i] for i in subs],
                                                   [subs.index(i) for i in left])
        lam = np.linalg.eigvalsh(st)
        out["lambda_m"] *= float(lam[lam > rank_tol].min())
        out["c_st"] *= ((r - sum_l) * (r - sum_r)) ** 0.5**depth
        for child, block in ((node[0], left), (node[1], right)):
            if is_leaf(child):
                one_minus = 1.0 - _skew_coherence(_reduced(mat, dims, block))
                out["lhs_product"] *= one_minus
                out["lhs_symmetric"] *= one_minus ** 0.5**depth
            else:
                split(child, depth + 1)

    split(tree, 0)
    out["ok_lambda_form"] = out["lhs_product"] >= out["lambda_m"] * one_minus_joint - gap_tol
    out["ok_symmetric_form"] = out["lhs_symmetric"] >= one_minus_joint**2 / out["c_st"] - gap_tol
    return out


def uhlmann_fidelity(a, b):
    sa = psd_sqrt(a)
    inner = sa @ np.asarray(b, dtype=complex) @ sa
    w = np.linalg.eigvalsh((inner + inner.conj().T) / 2.0)
    return float(np.sqrt(np.clip(w, 0.0, None)).sum())


def qfi_finite_difference(mat, k, eps=5e-4):
    """8 (1 - F(rho, rho_eps)) / eps^2 for the phase family exp(-i eps |k><k|)."""
    mat = np.asarray(mat, dtype=complex)
    u = np.eye(mat.shape[0], dtype=complex)
    u[k, k] = np.exp(-1j * eps)
    shifted = u @ mat @ u.conj().T
    return 8.0 * (1.0 - uhlmann_fidelity(mat, shifted)) / eps**2


def _bloch_projectors(thetas, phis):
    """First-column projectors of the basis pairs {n, -n}; shape (G, 2, 2)."""
    tt, pp = np.meshgrid(thetas, phis, indexing="ij")
    tt = tt.ravel()
    pp = pp.ravel()
    v0 = np.cos(tt / 2.0)
    v1 = np.sin(tt / 2.0) * np.exp(1j * pp)
    proj = np.empty((tt.size, 2, 2), dtype=complex)
    proj[:, 0, 0] = np.abs(v0) ** 2
    proj[:, 0, 1] = v0 * np.conj(v1)
    proj[:, 1, 0] = np.conj(proj[:, 0, 1])
    proj[:, 1, 1] = np.abs(v1) ** 2
    return proj, tt, pp


def _grid_values(s4, pa, pb, s_tr):
    """Joint coherence on the product grid from the k=0,l=0 overlap alone."""
    m = np.einsum("abcd,uca->ubd", s4, pa).reshape(len(pa), 4)
    q = np.transpose(pb, (0, 2, 1)).reshape(len(pb), 4)
    t = (m @ q.T).real
    a = np.einsum("abcb,uca->u", s4, pa).real[:, None]
    b = np.einsum("abad,udb->u", s4, pb).real[None, :]
    total = t**2 + (a - t) ** 2 + (b - t) ** 2 + (s_tr - a - b + t) ** 2
    return 1.0 - total


def discord_grid_oracle(mat, step=np.pi / 60.0, refinements=2):
    """Exhaustive product-basis grid minimum for a two-qubit state.

    Basis pairs are parametrized by a Bloch direction on the upper hemisphere
    per side; the winning cell is re-gridded ``refinements`` times at 10x
    resolution, keeping the oracle a pure grid search.
    """
    s = psd_sqrt(mat)
    s4 = s.reshape(2, 2, 2, 2)
    s_tr = float(np.trace(s).real)

    th = np.arange(0.0, np.pi / 2.0 + step / 2.0, step)
    ph = np.arange(0.0, 2.0 * np.pi, step)
    pa, ta, fa = _bloch_projectors(th, ph)
    vals = _grid_values(s4, pa, pa, s_tr)
    iu, iv = np.unravel_index(np.argmin(vals), vals.shape)
    best = float(vals[iu, iv])
    center = [ta[iu], fa[iu], ta[iv], fa[iv]]

    h = step
    for _ in range(refinements):
        h /= 10.0
        grids = [c + np.linspace(-10 * h, 10 * h, 21) for c in center]
        pa, ta, fa = _bloch_projectors(grids[0], grids[1])
        pb, tb, fb = _bloch_projectors(grids[2], grids[3])
        vals = _grid_values(s4, pa, pb, s_tr)
        iu, iv = np.unravel_index(np.argmin(vals), vals.shape)
        best = min(best, float(vals[iu, iv]))
        center = [ta[iu], fa[iu], tb[iv], fb[iv]]
    return best


def qubit_a_discord(mat, db):
    """Closed form (1 - lambda_max(W)) / 2 of the asymmetric discord for a qubit A.

    ``W_ij = Tr[sqrt(rho) (s_i (x) I) sqrt(rho) (s_j (x) I)]`` over the Pauli
    matrices: half the local quantum uncertainty of Girolami, Tufarelli and
    Adesso, PRL 110, 240402 (2013).
    """
    s = psd_sqrt(mat)
    ops = [np.kron(p, np.eye(db)) for p in PAULIS]
    w = np.array([[np.trace(s @ a @ s @ b).real for b in ops] for a in ops])
    return float((1.0 - np.linalg.eigvalsh((w + w.T) / 2.0).max()) / 2.0)


def random_start_unitaries(seed, dims, restarts, sym):
    """The discord solver's random starts, one restart at a time.

    Restart r draws its own normal vector x of length dA^2 (+ dB^2 when
    ``sym``) and exponentiates the Hermitian H with diagonal x[:d] and upper
    triangle x[d:d+n] + i x[d+n:] for each subsystem.  Returns the (R-2)
    unitaries of A and, when ``sym``, of B.
    """
    rng = np.random.default_rng(seed)
    da, db = dims

    def expi(x, d):
        iu = np.triu_indices(d, 1)
        h = np.zeros((d, d), dtype=complex)
        h[iu] = x[d : d + len(iu[0])] + 1j * x[d + len(iu[0]) :]
        w, v = np.linalg.eigh(h + h.conj().T + np.diag(x[:d]))
        return (v * np.exp(1j * w)) @ v.conj().T

    ua, ub = [], []
    for _ in range(restarts - 2):
        x = rng.normal(0.0, np.pi / 2.0, size=da * da + (db * db if sym else 0))
        ua.append(expi(x[: da * da], da))
        if sym:
            ub.append(expi(x[da * da :], db))
    return ua, ub


def rotate_pair_fancy(m, u, pair, kept):
    """The discord pair rotation through fancy-index copies and writes, in place.

    The same arithmetic as ``cohlab.discord._rotate_pair``, with the index pair
    taken as an integer array, so every read of ``m`` and ``u`` is a copy.
    """
    pair = np.array(pair)
    x = m[:, pair][:, :, :, pair] * kept[:, None, :]
    v = np.stack([x[:, 0, :, 1] + x[:, 1, :, 0], 1j * (x[:, 0, :, 1] - x[:, 1, :, 0]),
                  x[:, 0, :, 0] - x[:, 1, :, 1]], 1).reshape(len(x), 3, -1)
    n = np.linalg.eigh((v @ v.conj().swapaxes(1, 2)).real)[1][:, :, -1]
    n = np.where(n[:, 2:] < 0.0, -n, n)
    c = np.sqrt((1.0 + n[:, 2]) / 2.0)
    s = (n[:, 0] + 1j * n[:, 1]) / (2.0 * c)
    g = np.stack([c, -s.conj(), s, c], 1).reshape(-1, 2, 2)
    u[:, :, pair] = u[:, :, pair] @ g
    m[:, pair] = np.einsum("rji,rj...->ri...", g.conj(), m[:, pair])
    m[:, :, :, pair] = np.einsum("rabjc,rjl->rablc", m[:, :, :, pair], g)


def power_sum_jacobian_inverse_norm(lams):
    """Infinity norm of the inverse Jacobian of lam -> (sum lam^n)_n."""
    lams = np.asarray(lams, dtype=float)
    n = len(lams)
    j = np.array([(m + 1) * lams**m for m in range(n)])
    return float(np.linalg.norm(np.linalg.inv(j), ord=np.inf))


def kraus_draws(rng, dim, n_kraus, incoherent):
    """Kraus operators drawn one operator at a time, in the channel samplers' draw order.

    Incoherent: one ``rng.permutation(dim)`` support per operator, then the
    (n_kraus, dim) complex amplitudes normalized per column.  General: a complex
    normal block per operator, real part then imaginary part, right-multiplied by
    (sum_n A_n^dag A_n)^(-1/2).
    """
    if incoherent:
        rows = [rng.permutation(dim) for _ in range(n_kraus)]
        amps = rng.standard_normal((n_kraus, dim)) + 1j * rng.standard_normal((n_kraus, dim))
        amps = amps / np.sqrt((np.abs(amps) ** 2).sum(axis=0))
        ops = []
        for r, a in zip(rows, amps):
            m = np.zeros((dim, dim), dtype=complex)
            m[r, np.arange(dim)] = a
            ops.append(m)
        return ops
    blocks = [rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
              for _ in range(n_kraus)]
    w, v = np.linalg.eigh(sum(a.conj().T @ a for a in blocks))
    g_isqrt = (v / np.sqrt(w)) @ v.conj().T
    return [a @ g_isqrt for a in blocks]


def monotonicity_reference(ch, rho, measure="skew", obs=None, tol=1e-9):
    """Monotonicity verdict of one state, each outcome and the output validated on its own.

    The selective outcomes come from ``apply_selective`` and the output from
    ``apply``; the average is a Python sum of p * C in outcome order.
    """
    from cohlab import MonotonicityVerdict, apply, apply_selective, c_skew, k_coherence

    f = c_skew if measure == "skew" else (lambda r: k_coherence(r, obs))
    c_before = f(rho)
    c_avg = float(sum(o.probability * f(o.state) for o in apply_selective(ch, rho)))
    c_after = f(apply(ch, rho))
    return MonotonicityVerdict(c_before, c_avg, c_after, c_avg <= c_before + tol,
                               c_after <= c_before + tol)


def monotonicity_sweep_reference(measure, samples, dim, seed):
    """Per-sample loop of ``monotonicity_sweep``: draw sample i from its child generator
    (Kraus count, channel, Ginibre state, observable) and check it alone.  The generator is
    numpy's, built here from the ``SeedSequence`` spawn key."""
    from cohlab import ginibre_mixed, random_incoherent_channel
    from cohlab.coherence import validate_observable

    verdicts = []
    for i in range(samples):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(i,)))
        nk = int(rng.integers(1, dim + 2))
        ch = random_incoherent_channel(dim, nk, rng)
        rho = ginibre_mixed(dim, rng)
        obs = validate_observable(random_hermitian(dim, rng)) if measure == "k" else None
        verdicts.append(monotonicity_reference(ch, rho, measure, obs))
    return verdicts


def haar_pure(dim: int, rng):
    """Haar-random pure state (normalized complex normal vector)."""
    from cohlab.linalg import _dim, pure_state
    from cohlab.rand import _complex_normal, as_rng

    return pure_state(_complex_normal(as_rng(rng), _dim(dim)))


def random_unitary(dim: int, rng) -> np.ndarray:
    """Haar-distributed unitary via phase-fixed QR of a Ginibre matrix."""
    from cohlab.linalg import _dim
    from cohlab.rand import _complex_normal, as_rng

    dim = _dim(dim)
    q, r = np.linalg.qr(_complex_normal(as_rng(rng), (dim, dim)))
    phases = np.diagonal(r).copy()
    phases /= np.abs(phases)
    return q * phases


def random_hermitian(dim: int, rng) -> np.ndarray:
    """Hermitian part of a complex normal matrix."""
    from cohlab.linalg import _dim, _hermitian_part
    from cohlab.rand import _complex_normal, as_rng

    dim = _dim(dim)
    return _hermitian_part(_complex_normal(as_rng(rng), (dim, dim)))


def state_to_obj(rho) -> dict:
    from cohlab.serialize import matrix_to_obj

    return {"dim": rho.dim, **matrix_to_obj(rho.mat)}


def write_state(path: str, rho):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(state_to_obj(rho), fh)
