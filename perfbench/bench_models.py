"""Seeded family of admissible polyhedral models for the `certify` workload.

Each model is a canonical affine diffusion on R^m_+ x R^n_+ x R^r (m
square-root facets, n facets with no diffusion, r = p - m - n free
coordinates carrying a PSD block Psi), seen through a random well-conditioned
affine image.  The models are admissible and PSD-decomposable by
construction, so every `validate`, `canonicalize` and `decompose` call on
them is expected to exit 0 with canonical sizes (m, n).

Only numpy is used: the inputs do not depend on the package under test.
"""

from __future__ import annotations

import numpy as np

# (p, m, n) per generated model; the values are drawn from the seed, the
# shapes are fixed so that the LP count of a round does not depend on it.
SHAPES = (
    (2, 1, 0), (2, 1, 1),
    (3, 1, 1), (3, 2, 0),
    (4, 2, 1), (4, 1, 2),
    (5, 2, 2), (5, 3, 1),
    (6, 3, 2), (6, 2, 3),
)
# singular values of the affine image T
SINGULAR_RANGE = (0.5, 2.0)


def canonical_model(rng: np.random.Generator, p: int, m: int, n: int):
    """Drift (a, b), diffusion (A0, A) and facets (gamma, delta) in canonical
    coordinates: facets x_i >= 0 for i < m + n."""
    q = m + n
    r = p - q
    A0 = np.zeros((p, p))
    A = np.zeros((p, p, p))
    for i in range(m):
        A[i, i, i] = 1.0
    for k in range(q + 1):
        G = rng.standard_normal((r, r))
        block = G @ G.T + (0.1 * np.eye(r) if k == 0 else 0.0)
        if k == 0:
            A0[q:, q:] = block
        else:
            A[k - 1, q:, q:] = block
    a = rng.standard_normal((p, p))
    a[:q, :q] = np.abs(a[:q, :q])   # facet coordinates push each other inward
    a[:q, q:] = 0.0
    np.fill_diagonal(a[:q, :q], -1.0)
    b = np.concatenate([np.abs(rng.standard_normal(q)) + 0.1,
                        rng.standard_normal(r)])
    gamma = np.eye(p)[:q]
    delta = np.zeros(q)
    return a, b, A0, A, gamma, delta


def affine_image(rng: np.random.Generator, a, b, A0, A, gamma, delta):
    """The same model for X = T Y + s, with T having singular values in
    SINGULAR_RANGE; facet rows are rescaled by positive factors."""
    p = b.shape[0]
    q1, _ = np.linalg.qr(rng.standard_normal((p, p)))
    q2, _ = np.linalg.qr(rng.standard_normal((p, p)))
    T = q1 @ np.diag(rng.uniform(*SINGULAR_RANGE, size=p)) @ q2
    s = rng.uniform(-1.0, 1.0, size=p)
    Tinv = np.linalg.inv(T)
    a2 = T @ a @ Tinv
    b2 = T @ b - a2 @ s
    # theta_X(x) = T theta_Y(Tinv (x - s)) T^T, coefficient by coefficient
    y0 = -Tinv @ s
    A0_2 = T @ (A0 + np.tensordot(y0, A, axes=(0, 0))) @ T.T
    A_2 = np.einsum("kj,kab->jab", Tinv, A)
    A_2 = np.einsum("ia,jab,kb->jik", T, A_2, T)
    row_scale = rng.uniform(0.5, 2.0, size=gamma.shape[0])
    gamma2 = (gamma @ Tinv) * row_scale[:, None]
    delta2 = (delta - (gamma @ Tinv) @ s) * row_scale
    return (a2, b2, 0.5 * (A0_2 + A0_2.T),
            0.5 * (A_2 + np.swapaxes(A_2, 1, 2)), gamma2, delta2)


def model_dict(a, b, A0, A, gamma, delta) -> dict:
    return {
        "dimension": int(b.shape[0]),
        "drift": {"a": a.tolist(), "b": b.tolist()},
        "diffusion": {"A0": A0.tolist(), "A": [M.tolist() for M in A]},
        "state_space": {"kind": "polyhedral", "gamma": gamma.tolist(),
                        "delta": delta.tolist()},
    }


def generated_models(seed: int) -> list[tuple[str, dict, tuple[int, int]]]:
    """(name, model dict, expected canonical (m, n)) for every shape."""
    rng = np.random.default_rng([seed, 0xC0FFEE])
    out = []
    for p, m, n in SHAPES:
        parts = canonical_model(rng, p, m, n)
        out.append((f"gen_p{p}_m{m}_n{n}",
                    model_dict(*affine_image(rng, *parts)), (m, n)))
    return out
