"""Decision battery: factoriality, ergodicity, spectral mixing, and the
dual-fixed-point purity certificate.

:func:`pipeline` validates a system, finds invariant densities, compresses to
the support, canonicalizes and builds the modular duals, once.  The battery
reads its verdicts from that pipeline and decides purity by the
finite-dimensional certificate: the fixed points of the dual channel equal
the represented algebra, together with ergodicity of the transfer channel.
Both fixed-point spaces are certified by the fixed-point lemma
(:func:`fcslab.algebras.fixed_point_lemma`) from invariant faithful
densities the pipeline already holds, so no fixed-point kernel on the
m^2-dimensional matrix space of the GNS space is solved; A' is J A J and the
center is read on C^r (:func:`ergodicity`), so no other subspace is either.
The infinite-volume statements this certifies are documented in the report
as certified indirectly; they are never tested directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import algebras, chain, modular, systems
from .linalg import subspace_equal


class InternalConsistencyError(RuntimeError):
    """Two independent tests of the same mathematical fact disagreed."""


@dataclass(frozen=True)
class Pipeline:
    """The stages of one analysis, each computed once.

    ``diagnostics`` is the validation of the input system, ``search`` its
    invariant densities, ``comp_sys``/``comp_state`` the system and mean
    state compressed to the support, ``can`` the canonical (GNS) system,
    ``md`` its modular data and ``dual`` the dual Kraus family.
    """

    diagnostics: systems.SystemDiagnostics
    search: systems.InvariantSearch
    comp_sys: systems.KrausSystem
    comp_state: systems.InvariantState
    can: systems.CanonicalSystem
    md: modular.ModularData
    dual: modular.DualSystem


def pipeline(sys: systems.KrausSystem, tol: float = 1e-9) -> Pipeline:
    """Validate, compress to the support, canonicalize, and build the modular
    data and the dual family of a system."""
    diag = systems.validate(sys, tol=tol)
    if not diag.ok:
        raise systems.ValidationError(
            f"system failed validation: unit residual {diag.unit_residual:.3e}"
        )
    search = systems.invariant_states(sys, tol=tol)
    comp_sys, comp_state, _ = systems.compress_to_support(
        sys, search.mean_state, tol=tol)
    # the state is faithful on the compressed system by construction and the
    # letters generate the algebra, so a Gram matrix that canonicalize
    # refuses as singular, or letters it finds outside the algebra it solved,
    # is the pipeline disagreeing with itself, not a fault of the input
    try:
        can = systems.canonicalize(comp_sys, comp_state, tol=tol)
    except systems.ValidationError as exc:
        raise InternalConsistencyError(
            f"canonicalize refused the pipeline's own compressed system: "
            f"{exc}") from None
    md = modular.modular_data(can, tol=tol)
    dual = modular.dual_system(md, tol=tol)
    return Pipeline(diagnostics=diag, search=search, comp_sys=comp_sys,
                    comp_state=comp_state, can=can, md=md, dual=dual)


def channel_spectrum(sys: systems.KrausSystem):
    """All n^2 eigenvalues of the transfer channel, deterministically sorted.

    They are read from the real Hermitian-frame matrix, so they come in
    conjugate pairs."""
    w = np.linalg.eigvals(sys.transfer_super()).astype(np.complex128)
    order = np.lexsort((np.round(np.angle(w), 12), -np.round(np.abs(w), 12)))
    return w[order]


def peripheral_eigenvalues(spectrum, tol: float = 1e-8):
    return spectrum[np.abs(np.abs(spectrum) - 1.0) <= tol]


@dataclass(frozen=True)
class ErgodicityResult:
    is_ergodic: bool
    fixed_dim_in_algebra: int
    is_factor: bool
    center_dim: int


def ergodicity(can: systems.CanonicalSystem,
               tol: float = 1e-8) -> ErgodicityResult:
    """Simplicity of eigenvalue 1 of the transfer channel on the algebra.

    The eigenvalues are those of ``can.transfer``, the transfer channel on A
    in the basis pi(c) (:class:`fcslab.systems.CanonicalSystem`), an m x m
    matrix filled on C^n.  They are cross-checked against triviality of the
    center, taken on C^r as Z(A) = C intersected with A, for C = {v_k,
    v_k*}' and A = C' as :func:`fcslab.systems.canonicalize` solved them
    (``can.base_commutant`` and ``can.base_algebra``); pi is faithful, so
    this is the center of the represented algebra.  Disagreement of the two
    tests is an internal-consistency error.
    """
    w = np.linalg.eigvals(can.transfer)
    fixed_dim = int(np.sum(np.abs(w - 1.0) <= tol))
    simple = fixed_dim == 1

    center, is_factor = algebras.center_and_factor(can.base_commutant,
                                                   can.base_algebra)
    if simple != is_factor:
        raise InternalConsistencyError(
            f"ergodicity test (fixed dim {fixed_dim}) disagrees with factor "
            f"test (center dim {center.dim})"
        )
    return ErgodicityResult(is_ergodic=simple, fixed_dim_in_algebra=fixed_dim,
                            is_factor=is_factor, center_dim=center.dim)


@dataclass(frozen=True)
class MixingResult:
    strongly_mixing: bool
    gap: float


def kolmogorov_proxy(sys: systems.KrausSystem, tol: float = 1e-8) -> MixingResult:
    """Spectral mixing proxy: peripheral spectrum {1} with a simple eigenvalue.

    This forces convergence of channel powers to the invariant functional.
    It is a proxy only: spectral mixing is reported separately from purity
    and the two are never conflated.
    """
    return _mixing(channel_spectrum(sys), tol)


def _mixing(spec, tol: float = 1e-8) -> MixingResult:
    """:func:`kolmogorov_proxy` read off a :func:`channel_spectrum`."""
    mods = np.sort(np.abs(spec))[::-1]
    peripheral = peripheral_eigenvalues(spec, tol=tol)
    gap = float(1.0 - (mods[1] if mods.size > 1 else 0.0))
    strongly = peripheral.size == 1 and abs(peripheral[0] - 1.0) <= tol
    return MixingResult(strongly_mixing=bool(strongly), gap=gap)


def _lemma(kraus, density, tol: float, bound: float) -> float:
    """:func:`fcslab.algebras.fixed_point_lemma`, with a failed hypothesis
    raised as an internal-consistency error."""
    try:
        return algebras.fixed_point_lemma(kraus, density, tol=tol, bound=bound)
    except algebras.FixedPointLemmaError as exc:
        raise InternalConsistencyError(str(exc)) from None


def dual_generators(md: modular.ModularData, duals) -> np.ndarray:
    """The x_k in M_r with pi(x_k) = s_k = J w_k J, for duals w_k in A'.

    s_k lies in A, so x_k = sum_i (s_k Omega)_i c_i over the GNS basis, and
    s_k Omega = J w_k Omega as J Omega = Omega.  For the modular duals this
    is the closed form x_k = rho^{-1/2} v_k* rho^{1/2}.
    """
    s_omega = md.j((duals @ md.omega).T).T
    return np.einsum("ki,iab->kab", s_omega, md.can.basis_mats)


def dual_identity(md: modular.ModularData, duals, tol: float = 1e-9,
                  subspace_tol: float = 1e-8):
    """Whether the fixed points of y -> sum_k w_k y w_k* are the represented
    algebra A, given that the fixed-point lemma holds for the w_k.

    Then Fix = J {s_k, s_k*}' J with s_k = J w_k J, and J A' J = A, so Fix =
    A exactly when {s_k, s_k*}' = A', that is when the s_k generate A.
    Pulled back to the support, that is {x_k, x_k*}' = {v_k, v_k*}' in M_r
    (:func:`dual_generators`), the latter ``can.base_commutant``.  Returns
    (equal, largest principal angle).
    """
    return subspace_equal(
        algebras.generated_commutant(dual_generators(md, duals), tol),
        md.can.base_commutant, tol=subspace_tol)


@dataclass(frozen=True)
class PurityReport:
    validated: bool
    invariant_multiplicity: int
    is_factor: bool | None
    is_ergodic: bool | None
    support_identity_ok: bool | None
    dual_identity_ok: bool | None
    is_pure: bool | None
    purity_reason: str
    channel_spectrum: np.ndarray = field(repr=False)
    mixing_gap: float | None
    strongly_mixing: bool | None
    gauge: chain.GaugeGroup | None
    gns_dim: int | None
    residuals: dict = field(repr=False)
    pipeline: Pipeline = field(repr=False)
    notes: tuple = ()


_INDIRECT_NOTE = (
    "Infinite-volume equivalents (irreducibility, split commutant equality) "
    "are certified indirectly through the finite-dimensional fixed-point "
    "identities; they are not tested directly."
)


def purity_battery(sys: systems.KrausSystem, tol: float = 1e-9,
                   subspace_tol: float = 1e-8,
                   gauge_cutoff: int = 4) -> PurityReport:
    """Run the full certificate chain on a system.

    With a unique invariant density the purity verdict is the conjunction of
    ergodicity and the dual-fixed-point identity.  Both fixed-point
    identities come from the fixed-point lemma, Fix = {K_k, K_k*}' for a
    unital Kraus family K with a faithful invariant density:

    - support identity, Fix(tau_pi) = A': K = pi(v_k) and D = pi(rho), which
      is invariant and positive definite, as <x, D x>_phi =
      ||rho^{1/2} x rho^{1/2}||^2.  A' = J A J needs no check: J is in
      standard form (:func:`fcslab.modular.modular_data`), where J x J is a
      right multiplication;
    - dual identity, Fix(dual) = A: K = w_k and D~ = J D J give Fix(dual) =
      J {s_k, s_k*}' J with s_k = J w_k J in A, which is A exactly when the
      s_k generate A.  Pulled back to the support C^r they are x_k =
      rho^{-1/2} v_k* rho^{1/2}, and {x_k, x_k*}' and {v_k, v_k*}' are
      compared as kernels with r^2 unknowns.

    A failed lemma hypothesis or support identity raises
    :class:`InternalConsistencyError`.  With several invariant
    densities ergodicity fails and purity is reported false with the fields
    that presume ergodicity marked not applicable (None).  The report
    carries the :class:`Pipeline` its verdicts were read from.
    """
    p = pipeline(sys, tol=tol)
    can = p.can
    residuals: dict = {"unitality": p.diagnostics.unit_residual}
    multiplicity = p.search.multiplicity
    spectrum = channel_spectrum(sys)
    mixing = _mixing(spectrum)

    erg = ergodicity(can, tol=subspace_tol)

    density = can.represent(p.comp_state.rho)
    residuals["support_density_invariance"] = _lemma(
        can.pi_ops, density, tol, subspace_tol)

    gauge = chain.gauge_group(p.comp_sys, p.comp_state,
                              length_cutoff=gauge_cutoff, tol=max(tol, 1e-9))

    residuals.update({f"dual_{k}": v for k, v in p.dual.residuals.items()})
    residuals["kms_duality"] = modular.kms_duality(p.md, p.dual)

    # Fix(dual) = J {s_k, s_k*}' J, s_k = J w_k J, by the lemma with J D J
    duals = p.dual.ops
    residuals["dual_density_invariance"] = _lemma(
        duals, p.md.j.sandwich(density), tol, subspace_tol)
    dual_ok, angle_dual = dual_identity(p.md, duals, tol, subspace_tol)
    residuals["dual_identity_angle"] = angle_dual

    if multiplicity > 1 or not erg.is_ergodic:
        is_pure = False
        reason = "state not extremal/ergodic"
        dual_ok_field = None
    else:
        is_pure = bool(dual_ok and erg.is_ergodic)
        reason = ("dual fixed points equal the algebra" if is_pure
                  else "dual fixed-point space strictly larger than the algebra")
        dual_ok_field = bool(dual_ok)

    return PurityReport(
        validated=True,
        invariant_multiplicity=multiplicity,
        is_factor=erg.is_factor,
        is_ergodic=erg.is_ergodic,
        support_identity_ok=True,
        dual_identity_ok=dual_ok_field,
        is_pure=is_pure,
        purity_reason=reason,
        channel_spectrum=spectrum,
        mixing_gap=mixing.gap,
        strongly_mixing=mixing.strongly_mixing,
        gauge=gauge,
        gns_dim=can.gns_dim,
        residuals=residuals,
        pipeline=p,
        notes=(_INDIRECT_NOTE,),
    )
