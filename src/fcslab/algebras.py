"""Finite-dimensional von Neumann algebra computations.

Generated *-algebras, commutants, centers, factor tests, and fixed-point
spaces of Kraus channels, all as :class:`~fcslab.linalg.OperatorSubspace`
values in a fixed ambient matrix space, and the fixed-point lemma that
certifies a fixed-point space from a faithful invariant density without
solving for it.
"""

from __future__ import annotations

import numpy as np

from .linalg import (
    KERNEL_TOL,
    SUBSPACE_TOL,
    OperatorSubspace,
    as_complex,
    dag,
    frame_super,
    orthonormalize_matrices,
    psd_range,
    sandwich_super,
    solve_linear_space,
    subspace_intersection,
)


class NotStarClosedError(ValueError):
    """Operation requires a *-closed subspace."""


def generated_algebra(gens, ambient_dim: int,
                      tol: float = KERNEL_TOL) -> OperatorSubspace:
    """Smallest unital *-algebra containing the generators.

    The algebra is the span of the words in the letters {g, g*}.  Starting
    from span{1, g, g*}, each round multiplies the current orthonormal basis
    from the left by every letter, 2d dim A products for d generators, and
    re-orthonormalizes; a span that contains 1 and is closed under left
    multiplication by the letters holds every word, and the letters are
    closed under *, so it is the generated *-algebra.  The dimension grows
    in every round but the last, and the closure returns at once when it
    reaches ``ambient_dim**2``.

    The analysis does not call it: :func:`fcslab.systems.canonicalize` takes
    the generated algebra as the bicommutant {g, g*}'', solving both
    commutants by :func:`generated_commutant`.  The closure builds it from
    the words instead and is the reference for that in the tests.
    """
    n = ambient_dim
    letters = as_complex(gens).reshape(-1, n, n)
    letters = np.concatenate([letters, dag(letters)])
    basis = orthonormalize_matrices(
        np.concatenate([np.eye(n, dtype=np.complex128)[None], letters]),
        tol=tol)
    for _ in range(n * n + 1):
        if basis.shape[0] == n * n:
            return OperatorSubspace(ambient_dim=n, basis=basis)
        products = (letters[:, None] @ basis[None]).reshape(-1, n, n)
        grown = orthonormalize_matrices(np.concatenate([basis, products]),
                                        tol=tol)
        if grown.shape[0] == basis.shape[0]:
            return OperatorSubspace(ambient_dim=n, basis=grown)
        basis = grown
    raise RuntimeError("algebra closure did not stabilize")  # pragma: no cover


def commutant(space: OperatorSubspace,
              tol: float = KERNEL_TOL) -> OperatorSubspace:
    """Commutant of a *-closed subspace A: the range of the twirl
    ``Phi(x) = sum_b b x b*`` over an orthonormal basis {b} of A.

    Phi does not depend on the basis, so it commutes with conjugation by the
    unitaries of A and maps into A'.  For A = (+)_i M_{k_i} (x) 1_{l_i} it
    multiplies the i-th block of A' by k_i / l_i > 0 and is zero on the
    complement of A'; in standard form it is the projector onto A'.  So Phi
    is Hermitian positive semidefinite with range exactly A', of rank
    r = dim A', and that range is read off a pivoted Cholesky factorization
    (:func:`fcslab.linalg.psd_range`): its factor columns are combinations
    of columns of Phi, hence lie in A', and r of them are independent.  The
    rank cut is at tol * max(1, max diag Phi).

    Phi is never formed.  On row-major vec(x) its entries are
    ``Phi[(i, k), (j, l)] = sum_b b_ij conj(b_kl)``, so its diagonal is one
    (m x dim A) (dim A x m) product of the basis diagonals, and its column
    (j, l) is ``vec(B_j^T conj(B_l))`` with ``B_j = [b_ij]_(b, i)``, at
    O(dim A * m^2).  The factorization asks for r columns and takes r steps
    of O(m^2 r), then one QR of the m^2 x r factor, where forming Phi would
    cost O(dim A * m^4) and a full eigh of it O(m^6).
    """
    if not space.is_star_closed():
        raise NotStarClosedError("commutant requires a *-closed subspace")
    m, b = space.ambient_dim, space.basis
    # cols[j] = B_j^T, one (m, dim A) slice per column index of the basis
    cols = np.ascontiguousarray(b.transpose(2, 1, 0))
    d = np.einsum("bii->ib", b)  # d[i, b] = b_ii

    def column(p):
        j, l = divmod(p, m)
        return (cols[j] @ np.conj(cols[l]).T).reshape(-1)

    return OperatorSubspace(
        ambient_dim=m,
        basis=psd_range(np.real(d @ np.conj(d.T)).reshape(-1), column, tol).T)


def generated_commutant(gens, tol: float = KERNEL_TOL) -> OperatorSubspace:
    """{g_k, g_k*}' in M_r: the joint kernel of x -> g x - x g over the
    generators and their adjoints, with r^2 unknowns.  On row-major vec(x)
    the map has the entries g[i, k] [j = l] - [i = k] g[l, j]."""
    gens = np.concatenate([gens, dag(gens)])
    r = gens.shape[-1]
    eye = np.eye(r)
    maps = (np.einsum("gik,jl->gijkl", gens, eye)
            - np.einsum("ik,glj->gijkl", eye, gens))
    return solve_linear_space([maps.reshape(-1, r * r)], r, tol=tol)


def center_and_factor(space: OperatorSubspace, commutant: OperatorSubspace):
    """Center, the intersection of A and A', of a *-closed algebra A given
    its commutant A', and whether A is a factor."""
    center = subspace_intersection(space, commutant)
    return center, center.dim == 1


def channel_super(kraus) -> np.ndarray:
    """Superoperator matrix of ``x -> sum_k a_k x a_k*`` on vec(x).

    The package works with the real Hermitian-frame matrix of such a map
    (:func:`fcslab.linalg.frame_super`); this vec-basis matrix is the
    reference the tests compare against.
    """
    kraus = [as_complex(a) for a in kraus]
    return sum(sandwich_super(a, dag(a)) for a in kraus)


def channel_fixed_points(kraus, tol: float = KERNEL_TOL) -> OperatorSubspace:
    """Fixed-point space of a unital Kraus channel.

    The Kraus family must satisfy ``sum a a* = 1``.  The kernel is solved in
    the Hermitian frame; the returned subspace is verified to be *-closed.
    """
    kraus = [as_complex(a) for a in kraus]
    n = kraus[0].shape[0]
    unit = sum(a @ dag(a) for a in kraus)
    defect = float(np.linalg.norm(unit - np.eye(n)))
    if defect > 1e-8 * max(1.0, float(np.linalg.norm(unit))):
        raise ValueError(f"Kraus family is not unital: defect {defect:.3e}")
    fixed = solve_linear_space([frame_super(kraus) - np.eye(n * n)], n,
                               tol=tol, frame=True)
    if not fixed.is_star_closed():
        raise RuntimeError("fixed-point space failed the *-closure check")
    return fixed


class FixedPointLemmaError(ValueError):
    """A density does not certify the fixed points of a Kraus channel."""


def fixed_point_lemma(kraus, density, tol: float = KERNEL_TOL,
                      bound: float = SUBSPACE_TOL) -> float:
    """Certify Fix(x -> sum_k a_k x a_k*) = {a_k, a_k*}' by an invariant
    faithful density; returns ||sum_k a_k* D a_k - D|| / ||D||.

    For a unital Kraus channel with a faithful invariant state Tr(D .), the
    fixed points are exactly the commutant of the Kraus operators and their
    adjoints (Frigerio, Commun. Math. Phys. 63, 269, 1978): for a fixed x,
    tau(x* x) - x* x = sum_k [a_k*, x]* [a_k*, x] >= 0 has trace zero
    against D, so it vanishes and x commutes with every a_k*, and so does
    the fixed x*.  So no m^2 x m^2 kernel is solved: the lemma's hypotheses
    are checked instead.
    D is faithful when its smallest eigenvalue exceeds ``tol`` times its
    largest; the family is unital and D invariant when the unit defect and
    the relative residual are at most ``bound``.  A failed hypothesis raises
    :class:`FixedPointLemmaError`.
    """
    kraus = as_complex(kraus)
    density = as_complex(density)
    w = np.linalg.eigvalsh((density + dag(density)) / 2)
    if not w[0] > tol * w[-1]:
        raise FixedPointLemmaError(
            f"density is not faithful (eigenvalues {w[0]:.3e} to {w[-1]:.3e})")
    unit = float(np.linalg.norm(
        np.sum(kraus @ dag(kraus), axis=0) - np.eye(density.shape[0])))
    residual = float(np.linalg.norm(
        np.sum(dag(kraus) @ density @ kraus, axis=0) - density)
        / np.linalg.norm(density))
    if not max(unit, residual) <= bound:
        raise FixedPointLemmaError(
            f"density does not certify the fixed points: unit defect "
            f"{unit:.3e}, invariance residual {residual:.3e}")
    return residual
