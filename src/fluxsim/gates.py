"""DRAG-pulsed Pauli-X gate on the coupled fluxonium-resonator system.

Sinusoidal in-phase envelope with a derivative out-of-phase correction,
charge-operator drive, interaction-picture RK4 propagation, leakage-aware
average gate fidelity with a single virtual-Z phase removed, and
(eps_d, lambda) pulse optimization at fixed drive frequency: the best point
of a 3 x 3 seed grid around the Rabi-area estimate and the first-order DRAG
weight, or an explicit seed, refined by quadratic models on a shrinking
stencil (minimize).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .coupled import (
    DEFAULT_MODE,
    MIN_ASSIGNMENT_QUALITY,
    CoupledDims,
    CouplingMode,
    ResonatorParams,
    _coupling_operator,
    assign_dressed_levels,
    build_coupled_hamiltonian,
    diagonalize,
)
from .errors import (DomainError, OptimizerConsistencyError,
                     ResonanceRegionError, StepSizeError, require_finite)
from .qubit import EnergyParams, FluxBias, anharmonicity, fluxonium_spectrum


@dataclass(frozen=True)
class PulseParams:
    """DRAG pulse: gate time (ns), drive amplitude (rad/ns), derivative
    scale (dimensionless), drive frequency (rad/ns)."""

    tau_g: float
    eps_d: float
    lam: float
    omega_d: float

    def __post_init__(self):
        require_finite(self, "tau_g", "eps_d", "lam", "omega_d")
        if not self.tau_g > 0:
            raise ValueError(f"tau_g must be positive, got {self.tau_g}")
        if self.eps_d < 0:
            raise ValueError(f"eps_d must be >= 0, got {self.eps_d}")


@dataclass(frozen=True)
class GateResult:
    """Average gate fidelity, leakage out of the computational subspace,
    the raw propagator, and the pulse that produced them."""

    fidelity: float
    leakage: float
    propagator: np.ndarray
    params: PulseParams

    @property
    def error(self):
        return 1.0 - self.fidelity


def drive_coefficient(pulse: PulseParams, anharm, t):
    """Scalar multiplying the charge operator at times t in [0, tau_g]:
    eps_d [2 s(t) sin(omega_d t) + s'(t) cos(omega_d t)], with the in-phase
    envelope s(t) = (1 - cos(2 pi t / tau_g)) / 2 and the out-of-phase DRAG
    envelope s'(t) = (lambda / alpha) ds/dt, analytically
    (lambda / alpha) (pi / tau_g) sin(2 pi t / tau_g)."""
    tau_g = pulse.tau_g
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0) or np.any(t_arr > tau_g):
        raise DomainError(f"t={t} outside pulse window [0, {tau_g}]")
    if anharm == 0.0:
        raise ZeroDivisionError("anharmonicity is zero; DRAG correction singular")
    phase = 2.0 * math.pi * t_arr / tau_g
    s = 0.5 * (1.0 - np.cos(phase))
    sp = (pulse.lam / anharm) * (math.pi / tau_g) * np.sin(phase)
    return pulse.eps_d * (2.0 * s * np.sin(pulse.omega_d * t)
                          + sp * np.cos(pulse.omega_d * t))


@dataclass(frozen=True)
class GateSpace:
    """Precomputed static structure for gate propagation at one flux point.

    h0_evals / h0_evecs is the eigensystem of the coupled Hamiltonian in the
    product basis (used for the interaction-picture propagation);
    charge_eig the projected qubit charge operator, tensored with the
    resonator identity, in that eigenbasis; comp_basis the dressed |0,0>,
    |1,0> eigenvectors (columns); omega_01 the dressed qubit frequency;
    anharm the bare qubit anharmonicity; n01 = |<0|n|1>|; lam_drag the
    first-order DRAG weight (|<1|n|2>| / |<0|n|1>|)^2 / 2 (Motzoi et al.,
    PRL 103, 110501 (2009)), 0 when level 2 is not kept.
    """

    h0_evals: np.ndarray
    h0_evecs: np.ndarray
    charge_eig: np.ndarray
    comp_basis: np.ndarray
    omega_01: float
    anharm: float
    n01: float
    lam_drag: float


GATE_DIMS = CoupledDims(kept=6, n_res=3)


def build_gate_space(params: EnergyParams, flux: FluxBias, res: ResonatorParams,
                     mode: CouplingMode = DEFAULT_MODE,
                     dims: CoupledDims = GATE_DIMS) -> GateSpace:
    """Raises ResonanceRegionError when the worse squared bare overlap
    backing the |0,0> and |1,0> labels is below MIN_ASSIGNMENT_QUALITY: the
    computational states are then undefined."""
    bare_vals, bare_vecs = fluxonium_spectrum(params, flux, dims.dim)
    h0 = build_coupled_hamiltonian(params, (bare_vals, bare_vecs), res, mode,
                                   dims)
    vals, vecs = diagonalize(h0)
    index, quality = assign_dressed_levels(vecs)
    label_quality = float(min(quality[0], quality[dims.n_res]))
    if label_quality < MIN_ASSIGNMENT_QUALITY:
        raise ResonanceRegionError(
            f"gate-space label quality {label_quality:.3f} below "
            f"{MIN_ASSIGNMENT_QUALITY}; computational states undefined",
            worst_quality=label_quality)
    ground, excited = index[0], index[dims.n_res]  # |0, 0> and |1, 0>
    comp = np.column_stack([vecs[:, ground], vecs[:, excited]])
    omega_01 = float(vals[excited] - vals[ground])
    anharm = anharmonicity(bare_vals)
    n_proj = _coupling_operator(bare_vecs, params, CouplingMode.CHARGE,
                                dims.kept)
    n01 = abs(n_proj[0, 1])
    lam_drag = float(0.5 * (abs(n_proj[1, 2]) / n01) ** 2
                     if dims.kept > 2 else 0.0)
    charge_op = np.kron(n_proj, np.eye(dims.n_res, dtype=complex))
    charge_eig = vecs.conj().T @ charge_op @ vecs
    return GateSpace(vals, vecs, charge_eig, comp, omega_01, anharm, n01,
                     lam_drag)


DEFAULT_GATE_DT = 1e-3
UNITARITY_BUDGET = 1e-8
# the resolution of a gate error: below the propagator's unitarity defect,
# round-off and the fidelity clamp decide the last digits, so the pulse
# refinement stops once its decreases fall under this floor
ERROR_FLOOR = 1e-2 * UNITARITY_BUDGET
# RK4 steps whose step matrices are formed and multiplied together at once;
# bounds the working set (128 step matrices, 0.7 MB) whatever the gate time
_STEP_BLOCK = 128
# RK4 steps whose drive is sampled at once, a multiple of _STEP_BLOCK: 0.2 MB
# whatever the gate time, and large enough that sampling costs little per step
_DRIVE_BLOCK = 16 * _STEP_BLOCK


def _chain(mats):
    """Ordered product mats[-1] @ ... @ mats[0] of a (k, d, d) stack, by
    pairwise products of stacked matrices. An even level is one stacked
    product; only an odd level is copied, to carry its last matrix up."""
    while len(mats) > 1:
        if len(mats) % 2:
            mats = np.concatenate([mats[1::2] @ mats[0:-1:2], mats[-1:]])
        else:
            mats = mats[1::2] @ mats[0::2]
    return mats[0]


def propagate_gate(space: GateSpace, pulse: PulseParams,
                   dt=DEFAULT_GATE_DT) -> np.ndarray:
    """Time-ordered lab-frame propagator over [0, tau_g].

    RK4 on the propagator in the interaction picture of the static
    Hamiltonian (the bare e^{-i H0 t} factor is restored exactly at tau_g).
    Plain lab-frame stepping cannot hold the 1e-8 unitarity budget at the
    default step because the coupled system carries ~17 GHz energy scales.

    The RK4 step of length h = dt from t_n = n h is computed exactly,
    without a loop over steps. With A(t) = -i u(t) D(t) N D(t)^dag, D(t) = diag(e^{i lam t})
    in the H0 eigenbasis, the step matrix is the polynomial
    M_n = I + h/6 (A1 + 4 Am + Af) + h^2/6 (Am A1 + Am Am + Af Am)
    + h^3/12 (Am Am A1 + Af Am Am) + h^4/24 Af Am Am A1 in the generators
    at t_n, t_n + h/2 and t_n + h. Those nodes sit at the fixed offsets
    0, h/2, h from t_n, so D(t_n) factors out of every product:
    M_n = D(t_n) B_n D(t_n)^dag with B_n = I + sum_k c_k(n) G_k, where the
    nine G_k are products of N, E N E^dag and E^2 N E^-2 (E = D(h/2)),
    built once per call, and the c_k(n) are products of the drive samples
    and powers of h. The phases between steps telescope,
    D(t_n)^dag D(t_{n-1}) = F = D(-h), and the final e^{-i H0 tau_g}
    absorbs D(t_{N-1}), so U = V [F B_{N-1} ... F B_0] V^dag.

    The drive is sampled _DRIVE_BLOCK steps at a time on the bits of
    np.linspace(0, tau_g, 2 N + 1). The step matrices F B_n of up to
    _STEP_BLOCK steps come from one GEMM of the drive coefficients against
    the nine F G_k; F itself is diagonal, so it is added in place on the
    diagonals of that output. Each block is then chained (see _chain) onto
    the propagator. dt must be finite and positive (DomainError otherwise).
    """
    if not (math.isfinite(dt) and dt > 0):
        raise DomainError(f"gate step dt must be finite and positive, got {dt}")
    n_steps = max(1, int(round(pulse.tau_g / dt)))
    dt = pulse.tau_g / n_steps
    node = pulse.tau_g / (2 * n_steps)  # np.linspace's spacing
    dim = space.h0_evals.size
    half = np.exp(0.5j * dt * space.h0_evals)  # E = D(h/2)
    full = half ** 2                           # E^2 = D(h) = F^dag
    # stage generators at the offsets 0, h/2 and h, without u and -i
    a = space.charge_eig
    m = half[:, None] * a * half.conj()
    f = full[:, None] * a * full.conj()
    ma, mm, fm = m @ a, m @ m, f @ m
    mma, fmm = mm @ a, fm @ m
    # F G_k: the free step F scales the rows of each stage product, and
    # (-i)^order is folded in so that the coefficients c_k(n) are real
    order = np.array([1, 1, 1, 2, 2, 2, 3, 3, 4])
    gens = ((-1j) ** order[:, None, None] * full.conj()[None, :, None]
            * np.stack([a, m, f, ma, mm, fm, mma, fmm, fmm @ a]))
    gens = gens.reshape(9, -1).view(float)
    free = full.conj()
    h = dt
    w_prop = np.eye(dim, dtype=complex)
    for lo in range(0, n_steps, _DRIVE_BLOCK):
        hi = min(lo + _DRIVE_BLOCK, n_steps)
        t = np.arange(2 * lo, 2 * hi + 1) * node
        if hi == n_steps:
            t[-1] = pulse.tau_g
        u = drive_coefficient(pulse, space.anharm, t)
        u1, um, uf = u[0:-1:2], u[1::2], u[2::2]
        coef = np.column_stack([
            h / 6 * u1, 4 * h / 6 * um, h / 6 * uf,
            h ** 2 / 6 * um * u1, h ** 2 / 6 * um * um, h ** 2 / 6 * uf * um,
            h ** 3 / 12 * um * um * u1, h ** 3 / 12 * uf * um * um,
            h ** 4 / 24 * uf * um * um * u1,
        ])
        for start in range(0, hi - lo, _STEP_BLOCK):
            steps = (coef[start:start + _STEP_BLOCK] @ gens).view(complex)
            steps[:, ::dim + 1] += free
            w_prop = _chain(steps.reshape(-1, dim, dim)) @ w_prop
    # w_prop = D(tau_g)^dag W for the interaction-picture propagator W, so
    # both have the same unitarity defect
    defect = float(np.max(np.abs(w_prop.conj().T @ w_prop - np.eye(dim))))
    if not defect <= UNITARITY_BUDGET:
        raise StepSizeError(
            f"unitarity defect {defect:.3e} exceeds {UNITARITY_BUDGET:.0e} "
            f"at dt={dt}; reduce the step size",
            defect=defect, dt=dt,
        )
    v = space.h0_evecs
    return v @ w_prop @ v.conj().T


def gate_fidelity(unitary, space: GateSpace, pulse: PulseParams) -> GateResult:
    """Average fidelity against Pauli-X on the dressed computational
    subspace: M = X^dag Z(phi) P^dag U P with the single virtual-Z phase phi
    optimized out analytically; F = (Tr(M^dag M) + |Tr M|^2) / 6."""
    p = space.comp_basis
    m0 = p.conj().T @ unitary @ p
    tr_mm = float(np.real(np.trace(m0.conj().T @ m0)))
    # |Tr(X Z(phi) m0)| = |e^{i phi} m0[1,0] + m0[0,1]| maximized at |a|+|b|
    best_tr = abs(m0[1, 0]) + abs(m0[0, 1])
    # the propagator's unitarity defect (bounded by the step-size budget)
    # can push these marginally past their exact range; clamp to [0, 1]
    fidelity = min(1.0, max(0.0, (tr_mm + best_tr ** 2) / 6.0))
    leakage = min(1.0, max(0.0, 1.0 - 0.5 * tr_mm))
    return GateResult(float(fidelity), float(leakage), unitary, pulse)


def evaluate_gate(space: GateSpace, pulse: PulseParams,
                  dt=DEFAULT_GATE_DT) -> GateResult:
    return gate_fidelity(propagate_gate(space, pulse, dt), space, pulse)


def rabi_area_estimate(space: GateSpace, tau_g):
    """Two-level pi-area estimate: eps_d |<1|n|0>| integral(2 s) dt = pi,
    with integral(2 s) dt = tau_g for the sinusoidal envelope."""
    return math.pi / (space.n01 * tau_g)


# the refinement stencil: +-r along each axis and one diagonal
_STENCIL = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0],
                     [1.0, 1.0]])
# a bound on the refinement's iterations; a pulse needs three to five
_MAX_REFINE_ITER = 100


def minimize(fun, x0, *, scale, xatol, fatol=0.0):
    """Minimise a smooth function of two variables from x0 by quadratic
    models on a shrinking stencil (in the spirit of Powell's NEWUOA).

    In units of `scale`, each iteration evaluates fun at c + r (+-e1, +-e2,
    e1 + e2) around the current best point c, whose value is known. Those
    five values and c's fix the gradient g and Hessian H of a quadratic
    model exactly.
    The model's Newton step, or the steepest-descent (Cauchy) step when H
    is not positive definite, is clipped to length 4r and evaluated too,
    and the best of the stencil and that point becomes c. When that point
    is the unclipped Newton step and achieves at least half the decrease
    the model predicts for it, the model is trusted and r is divided by 8:
    c is then close to the minimum, and a smaller stencil fits the model
    there. Otherwise the radius shrinks to the length of the accepted step,
    but never below r/8: a flat objective (zero gradient) or an iteration
    that finds nothing better divides r by 8.

    It stops after an iteration in which both the achieved decrease of the
    best value and the model's predicted decrease for its step s before
    clipping, -(g.s + s.H.s / 2), are below fatol (the objective has
    converged to its resolution; a clipped step alone would predict too
    little while the minimum lies several radii away), once every component
    of r * scale is below xatol, or after _MAX_REFINE_ITER iterations.
    Returns the best point x and value fun, the evaluations nfev and
    iterations nit made, and success, true for the first two stops.
    """
    scale = np.asarray(scale, dtype=float)
    best_x = np.asarray(x0, dtype=float)
    best_f = fun(best_x)
    nfev, nit, r = 1, 0, 1.0
    at_floor = False
    while nit < _MAX_REFINE_ITER and not (at_floor or np.all(r * scale < xatol)):
        nit += 1
        offsets = r * _STENCIL
        f = [fun(best_x + d * scale) for d in offsets]
        grad = np.array([f[0] - f[1], f[2] - f[3]]) / (2.0 * r)
        cross = f[4] - f[0] - f[2] + best_f
        hess = np.array([[f[0] + f[1] - 2.0 * best_f, cross],
                         [cross, f[2] + f[3] - 2.0 * best_f]]) / r ** 2
        newton = hess[0, 0] > 0 and np.linalg.det(hess) > 0
        if newton:
            step = -np.linalg.solve(hess, grad)
        elif grad.any():
            curv = grad @ hess @ grad
            step = -grad * (grad @ grad / curv if curv > 0
                            else 4.0 * r / np.linalg.norm(grad))
        else:
            step = np.zeros(2)
        predicted = -(grad @ step + 0.5 * step @ hess @ step)
        length = np.linalg.norm(step)
        if length > 0:
            step *= min(1.0, 4.0 * r / length)
            offsets = np.vstack([offsets, step])
            f.append(fun(best_x + step * scale))
        nfev += len(f)
        i = int(np.argmin(f))
        moved, achieved = 0.0, 0.0
        if f[i] < best_f:
            achieved = best_f - f[i]
            best_x, best_f = best_x + offsets[i] * scale, float(f[i])
            moved = np.linalg.norm(offsets[i])
        if (newton and length <= 4.0 * r and i == len(_STENCIL)
                and achieved >= 0.5 * predicted):
            r /= 8.0  # the model held over its own step: trust it closer in
        else:
            r = min(r, max(moved, r / 8.0))
        at_floor = achieved < fatol and predicted < fatol
    return SimpleNamespace(x=best_x, fun=best_f, nfev=nfev, nit=nit,
                           success=bool(at_floor or np.all(r * scale < xatol)))


def optimize_pulse(space: GateSpace, tau_g, dt=DEFAULT_GATE_DT,
                   n_eps=3, n_lam=3, seed=None):
    """Optimise the DRAG pulse's (eps_d, lambda) at gate time tau_g.

    The best point of an n_eps x n_lam seed grid (3 x 3 by default;
    geometric in eps_d over a factor 2.5 around the Rabi-area
    estimate, linear in lambda over space.lam_drag +- 2) seeds minimize,
    whose stencil axes are 1 % of the seed's eps_d and 0.5 in lambda. An
    explicit seed (eps_d, lambda), such as another gate time's optimum,
    replaces the grid. The refinement stops
    once an iteration decreases the error, and its model predicts a
    decrease, by less than ERROR_FLOOR, or once the stencil is below
    1e-6 * max(1, eps_d) on both axes. Every (eps_d, lambda) is evaluated
    at most once. Deterministic; returns (PulseParams, GateResult), the
    result being the evaluation at dt of that pulse made during the search.
    Raises OptimizerConsistencyError if the refinement stops at its
    iteration bound, or if its error is worse than the seed's (the best
    grid point's without a seed), and DomainError for a seed whose eps_d is
    not positive or whose lambda is not finite. The space's labels were
    checked when it was built (build_gate_space), so no evaluation runs on
    unlabelled states.
    """
    omega_d = space.omega_01
    results = {}

    def gate_error(eps_d, lam):
        key = (float(eps_d), float(lam))
        if key not in results:
            results[key] = evaluate_gate(
                space, PulseParams(tau_g, *key, omega_d), dt)
        return results[key].error

    if seed is not None:
        eps0, lam0 = map(float, seed)
        if not (0 < eps0 < math.inf and math.isfinite(lam0)):
            raise DomainError(f"pulse seed {seed} needs eps_d > 0 and a "
                              f"finite lambda")
        seed_err = gate_error(eps0, lam0)
    else:
        lam_lo, lam_hi = space.lam_drag - 2.0, space.lam_drag + 2.0
        eps_est = rabi_area_estimate(space, tau_g)
        # a one-point axis sits at its centre
        eps_grid = (np.geomspace(eps_est / 2.5, eps_est * 2.5, n_eps)
                    if n_eps > 1 else [eps_est])
        lam_grid = (np.linspace(lam_lo, lam_hi, n_lam) if n_lam > 1
                    else [(lam_lo + lam_hi) / 2])
        # the first of equal seeds wins
        seed_err, eps0, lam0 = min(
            ((gate_error(eps_d, lam), float(eps_d), float(lam))
             for eps_d in eps_grid for lam in lam_grid),
            key=lambda point: point[0])

    def objective(x):
        eps_d, lam = x
        return 1.0 if eps_d <= 0 else gate_error(eps_d, lam)

    sol = minimize(objective, [eps0, lam0], scale=(0.01 * eps0, 0.5),
                   xatol=1e-6 * max(1.0, eps0), fatol=ERROR_FLOOR)
    if not sol.success:
        raise OptimizerConsistencyError(
            f"refinement did not converge in {sol.nit} iterations "
            f"({sol.nfev} evaluations); last error {sol.fun:.3e}")
    if sol.fun > seed_err + 1e-15:
        raise OptimizerConsistencyError(
            f"refined error {sol.fun:.3e} worse than seed error "
            f"{seed_err:.3e}")
    result = results[float(sol.x[0]), float(sol.x[1])]
    return result.params, result
