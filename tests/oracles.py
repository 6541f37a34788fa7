"""Independent reference computations used by the tests.

Nothing here calls the library's solver. The group norm is evaluated from an
explicit list of overlapping groups, and the block objective is minimized by
a batched normalized-subgradient method on the coefficient vector alone (the
sparse layer eliminated through the exact-decomposition constraint). Both
exist so solver results can be checked against an unrelated code path.
`group_factor_along` is the one helper that calls the library: it feeds
`scseg.admm.group_factor` the squared slice norms the solver's einsum sums.

`reference_solve` is a frozen copy of the one-block-at-a-time ADMM loop in
its textbook form, with its own shrinkage operators; the batched solver must
agree with it within rounding and give the same masks. `scaled_solve` is a
frozen one-block copy of the solver's scaled-form sweep (the same iteration
in exact arithmetic, with the group duals folded into the shrinkage steps),
which the batched solver must reproduce bit for bit: `alpha`, `s` and every
residual. It runs in the solver's float32 (SWEEP_DTYPE) and, as the solver
does, reports float64 copies and float64 residuals against the float64
input; `reference_solve` runs in float64. The shrinkage operators here keep
a float32 input in float32, as the solver's do, and take anything else to
float64. The basis products of both follow the solver's product contract:
each is row 0 of one GEMM with 8 rows (the solver's BATCH_BLOCKS), the other
rows zero, because a GEMM's row bits depend on its row count but not on the
other rows; the scaled sweep takes B'x as column 0 of B' X', X the 8 rows,
as the solver does.

`dense_fill_background` fits each block's background through an (n*n, k)
masked copy of the dense atoms, the reference the library's separable fit
(through the atoms' 1-D factors) must agree with.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from scseg.admm import group_factor

SWEEP_DTYPE = np.float32  # the dtype of the solver's sweep


def overlapping_groups(n: int) -> list:
    """Index lists for every row group and every column group of an n-by-n block."""
    groups = []
    for i in range(n):
        groups.append(np.arange(i * n, (i + 1) * n))
    for j in range(n):
        groups.append(np.arange(j, n * n, n))
    return groups


def group_norm_reference(s_flat: np.ndarray, n: int) -> float:
    """Sum of l2 norms over the explicit overlapping group list."""
    return float(sum(np.linalg.norm(s_flat[g]) for g in overlapping_groups(n)))


def subgradient_best_objective(
    blocks: np.ndarray,
    atoms: np.ndarray,
    lambda1: float,
    lambda2: float,
    steps: int = 100_000,
    scale: float = 2.0,
    check_every: int = 50,
) -> np.ndarray:
    """Minimize the constraint-eliminated objective per block by subgradient descent.

    blocks has shape (batch, n*n) and atoms (n*n, k). Starting from the
    least-squares coefficients, takes `steps` normalized subgradient steps
    with a diminishing scale/sqrt(t+1) schedule and returns the best exact
    objective value seen for each block.
    """
    blocks = np.asarray(blocks, dtype=np.float64)
    batch, n2 = blocks.shape
    n = int(round(np.sqrt(n2)))
    assert n * n == n2

    def exact(coef):
        sparse = blocks - coef @ atoms.T
        sm = sparse.reshape(batch, n, n)
        return (
            np.abs(coef).sum(axis=1)
            + lambda1 * np.abs(sparse).sum(axis=1)
            + lambda2 * (np.linalg.norm(sm, axis=2).sum(axis=1) + np.linalg.norm(sm, axis=1).sum(axis=1))
        )

    coef = blocks @ atoms
    best = exact(coef)
    for t in range(steps):
        sparse = blocks - coef @ atoms.T
        sm = sparse.reshape(batch, n, n)
        row_norm = np.linalg.norm(sm, axis=2, keepdims=True)
        col_norm = np.linalg.norm(sm, axis=1, keepdims=True)
        direction = np.divide(sm, row_norm, out=np.zeros_like(sm), where=row_norm > 0)
        direction += np.divide(sm, col_norm, out=np.zeros_like(sm), where=col_norm > 0)
        grad = np.sign(coef) - (lambda1 * np.sign(sparse) + lambda2 * direction.reshape(batch, n2)) @ atoms
        grad_norm = np.linalg.norm(grad, axis=1, keepdims=True)
        step = scale / np.sqrt(t + 1.0)
        coef = coef - step * np.divide(grad, grad_norm, out=np.zeros_like(grad), where=grad_norm > 0)
        if t % check_every == 0 or t == steps - 1:
            best = np.minimum(best, exact(coef))
    return best


def _as_float(x) -> np.ndarray:
    x = np.asarray(x)
    return x if x.dtype == np.float32 else x.astype(np.float64)


def reference_soft(x, lam: float) -> np.ndarray:
    x = _as_float(x)
    lam = x.dtype.type(lam)
    return np.sign(x) * np.maximum(np.abs(x) - lam, x.dtype.type(0))


def _shrink_factor(norms: np.ndarray, lam: float) -> np.ndarray:
    one, lam = norms.dtype.type(1), norms.dtype.type(lam)
    return np.where(norms > lam, one - lam / np.where(norms > 0, norms, one), norms.dtype.type(0))


def reference_group_factor(a: np.ndarray, lam: float, axis: int) -> np.ndarray:
    """(1 - lam/||x||)+ for every slice x along `axis`, keeping the axis."""
    return _shrink_factor(np.linalg.norm(_as_float(a), axis=axis, keepdims=True), lam)


def slice_squares(a, axis: int) -> np.ndarray:
    """The squared norm of every slice of `a` along `axis`, summed by one einsum as the solver sums it.

    For arrays of up to three dimensions, taken to float32 or float64 as the
    shrinkage operators take them; the axis is dropped (a 1-D `a` gives a
    0-d array). The einsum's summation order, not np.linalg.norm's, sets the
    last bits.
    """
    a = _as_float(a)
    dims = "ijk"[: a.ndim]
    return np.asarray(np.einsum(dims + "," + dims + "->" + dims.replace(dims[axis], ""), a, a))


def fused_group_factor(a: np.ndarray, lam: float, axis: int) -> np.ndarray:
    """reference_group_factor with each squared norm summed by one einsum (slice_squares)."""
    return _shrink_factor(np.sqrt(np.expand_dims(slice_squares(a, axis), axis)), lam)


def group_factor_along(a, lam: float, axis: int) -> np.ndarray:
    """The library's scseg.admm.group_factor of every slice of `a` along `axis`, keeping the axis.

    Its squared norms are slice_squares', so it must equal fused_group_factor
    bit for bit; this is the one helper here that calls the library.
    """
    return np.expand_dims(group_factor(slice_squares(a, axis), lam), axis)


def reference_group_soft(a: np.ndarray, lam: float, axis: int) -> np.ndarray:
    a = _as_float(a)
    return a * reference_group_factor(a, lam, axis)


@dataclass
class SolverState:
    """Primal and dual iterates of one block's splitting.

    alpha/beta are coefficient vectors (length k); s is the sparse layer and
    y, z its row- and column-group copies (length n*n); w1, w2, v1, v2 are
    the duals of the decomposition, coefficient-copy, and group-copy
    constraints.
    """

    alpha: np.ndarray
    beta: np.ndarray
    s: np.ndarray
    y: np.ndarray
    z: np.ndarray
    w1: np.ndarray
    w2: np.ndarray
    v1: np.ndarray
    v2: np.ndarray


def init_state(n: int, k: int) -> SolverState:
    """All-zero starting point (primal and dual)."""
    n2 = n * n
    return SolverState(
        alpha=np.zeros(k),
        beta=np.zeros(k),
        s=np.zeros(n2),
        y=np.zeros(n2),
        z=np.zeros(n2),
        w1=np.zeros(n2),
        w2=np.zeros(k),
        v1=np.zeros(n2),
        v2=np.zeros(n2),
    )


def padded_product(x: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """x @ mat as row 0 of a GEMM whose other 7 rows are zero, in x's dtype."""
    rows = np.zeros((8, x.size), x.dtype)
    rows[0] = x
    return (rows @ mat)[0]


def padded_transposed_product(mat_t: np.ndarray, x: np.ndarray) -> np.ndarray:
    """mat_t @ x as column 0 of a GEMM whose other 7 columns are zero, in x's dtype."""
    rows = np.zeros((8, x.size), x.dtype)
    rows[0] = x
    return (mat_t @ rows.T)[:, 0]


def admm_step(state: SolverState, f: np.ndarray, b: np.ndarray, params) -> SolverState:
    """One full update sweep of one block; returns the next state.

    Order: coefficients, their l1 copy, the sparse layer, the row and column
    group copies, then dual ascent on all four constraints using the fresh
    primal values. Every split's penalty is params.rho; the names r1..r4
    keep the textbook's one-penalty-per-split form.
    """
    n = int(round(np.sqrt(b.shape[0])))
    r1 = r2 = r3 = r4 = params.rho
    bt = np.ascontiguousarray(b.T)

    rhs = padded_product(state.w1, b) - state.w2 + r2 * state.beta + r1 * padded_product(f - state.s, b)
    alpha = rhs / (r1 + r2)
    beta = reference_soft(alpha + state.w2 / r2, 1.0 / r2)

    smooth = padded_product(alpha, bt)
    c = state.w1 - state.v1 - state.v2 + r1 * (f - smooth) + r3 * state.y + r4 * state.z
    s = reference_soft(c, params.lambda1) / (r1 + r3 + r4)

    s_mat = s.reshape(n, n)
    y = reference_group_soft(s_mat + state.v1.reshape(n, n) / r3, params.lambda2 / r3, axis=1).ravel()
    z = reference_group_soft(s_mat + state.v2.reshape(n, n) / r4, params.lambda2 / r4, axis=0).ravel()

    w1 = state.w1 + r1 * (f - smooth - s)
    w2 = state.w2 + r2 * (alpha - beta)
    v1 = state.v1 + r3 * (s - y)
    v2 = state.v2 + r4 * (s - z)
    return SolverState(alpha=alpha, beta=beta, s=s, y=y, z=z, w1=w1, w2=w2, v1=v1, v2=v2)


def _residuals(state: SolverState, f: np.ndarray, b: np.ndarray) -> tuple:
    return (
        float(np.linalg.norm(f - padded_product(state.alpha, np.ascontiguousarray(b.T)) - state.s)),
        float(np.linalg.norm(state.alpha - state.beta)),
        float(np.linalg.norm(state.s - state.y)),
        float(np.linalg.norm(state.s - state.z)),
    )


def reference_solve(f, atoms: np.ndarray, params, steps: int | None = None) -> dict:
    """Run admm_step from the zero state as the per-block solver did.

    Returns {"alpha", "s", "iters_run", "history", "state"}; raises
    FloatingPointError naming the iteration when an iterate goes non-finite.
    `steps`, when given, replaces params.max_iters.
    """
    f = np.asarray(f, dtype=np.float64).reshape(-1)
    n = int(round(np.sqrt(f.size)))
    state = init_state(n, atoms.shape[1])
    history = []
    iters_run = 0
    for _ in range(params.max_iters if steps is None else steps):
        state = admm_step(state, f, atoms, params)
        iters_run += 1
        if not (np.isfinite(state.alpha).all() and np.isfinite(state.s).all()):
            raise FloatingPointError(f"non-finite iterate at iteration {iters_run}")
        residuals = _residuals(state, f, atoms)
        history.append(residuals)
    return {
        "alpha": state.alpha,
        "s": state.s,
        "iters_run": iters_run,
        "history": history,
        "state": state,
    }


@dataclass
class ScaledState:
    """Iterates of one block's scaled-form sweep.

    Each dual is admm_step's divided by rho. alpha, beta, W2 = w2/rho and
    g = B'W1 are length k; s, W1 = w1/rho, V1 = v1/rho, V2 = v2/rho,
    U = (y - V1) + (z - V2) and the shrinkage inputs t_row = s + V1 and
    t_col = s + V2 of the last sweep are n-by-n; row_factor (n, 1) and
    col_factor (1, n) are its shrinkage factors, so y = row_factor * t_row
    and z = col_factor * t_col.
    """

    alpha: np.ndarray
    beta: np.ndarray
    w2: np.ndarray
    g: np.ndarray
    s: np.ndarray
    w1: np.ndarray
    v1: np.ndarray
    v2: np.ndarray
    u: np.ndarray
    t_row: np.ndarray
    t_col: np.ndarray
    row_factor: np.ndarray
    col_factor: np.ndarray


def scaled_step(state: ScaledState, f: np.ndarray, b: np.ndarray, params) -> ScaledState:
    """One scaled-form sweep of one block (f flat); returns the next state.

    admm_step with every penalty rho, divided through by rho. Its alpha
    update is (B'w1 - w2 + rho beta + rho B'(f - s)) / (2 rho), which is
    (B'W1 - W2 + beta + B'(f - s)) / 2; the last W1 update added
    f - B alpha - s, so B'(f - s) is g - g_prev + alpha_prev. Its s update
    soft(c, lambda1) / (3 rho) is soft(c / rho, lambda1 / rho) / 3, with
    c / rho = W1 + (f - B alpha) + U. Each group copy is the group soft
    threshold of T = s + V at lambda2 / rho, and the dual step V += s - y is
    V = T - y. It runs in the dtype of f and b, as the solver runs in its
    work array's.
    """
    n = int(round(np.sqrt(b.shape[0])))
    rho = params.rho
    bt = np.ascontiguousarray(b.T)
    two, third = f.dtype.type(2.0), f.dtype.type(1.0 / 3.0)

    g = padded_transposed_product(bt, state.w1.ravel())
    alpha = (g - state.w2 + state.beta + (g - state.g + state.alpha)) / two
    beta = reference_soft(alpha + state.w2, 1.0 / rho)
    w2 = state.w2 + (alpha - beta)

    q = state.w1 + (f.reshape(n, n) - padded_product(alpha, bt).reshape(n, n))
    s = reference_soft(q + state.u, params.lambda1 / rho) * third
    w1 = q - s

    t_row = s + state.v1
    row_factor = fused_group_factor(t_row, params.lambda2 / rho, axis=1)
    y = t_row * row_factor
    v1 = t_row - y
    t_col = s + state.v2
    col_factor = fused_group_factor(t_col, params.lambda2 / rho, axis=0)
    z = t_col * col_factor
    v2 = t_col - z
    return ScaledState(
        alpha=alpha,
        beta=beta,
        w2=w2,
        g=g,
        s=s,
        w1=w1,
        v1=v1,
        v2=v2,
        u=(y - v1) + (z - v2),
        t_row=t_row,
        t_col=t_col,
        row_factor=row_factor,
        col_factor=col_factor,
    )


def scaled_solve(f, atoms: np.ndarray, params, steps: int | None = None) -> dict:
    """Run scaled_step in SWEEP_DTYPE from the zero state; returns what reference_solve returns.

    "alpha" and "s" are float64 copies of the last sweep's. history holds,
    per sweep, ||f - B alpha - s|| and the split gaps ||alpha - beta||,
    ||s - y||, ||s - z||, each computed in float64 from float64 copies, with
    f the float64 input and B alpha one 8-row float64 GEMM.
    """
    f = np.asarray(f, dtype=np.float64).reshape(-1)
    n = int(round(np.sqrt(f.size)))
    k = atoms.shape[1]
    f_sweep, atoms_sweep = f.astype(SWEEP_DTYPE), atoms.astype(SWEEP_DTYPE)
    zero = np.zeros((n, n), SWEEP_DTYPE)
    g = -padded_transposed_product(np.ascontiguousarray(atoms_sweep.T), f_sweep)
    state = ScaledState(
        alpha=np.zeros(k, SWEEP_DTYPE), beta=np.zeros(k, SWEEP_DTYPE), w2=np.zeros(k, SWEEP_DTYPE), g=g,
        s=zero, w1=zero, v1=zero, v2=zero, u=zero, t_row=zero, t_col=zero,
        row_factor=np.zeros((n, 1), SWEEP_DTYPE), col_factor=np.zeros((1, n), SWEEP_DTYPE),
    )
    history = []
    iters_run = 0
    for _ in range(params.max_iters if steps is None else steps):
        state = scaled_step(state, f_sweep, atoms_sweep, params)
        iters_run += 1
        if not (np.isfinite(state.alpha).all() and np.isfinite(state.s).all()):
            raise FloatingPointError(f"non-finite iterate at iteration {iters_run}")
        alpha, s = state.alpha.astype(np.float64), state.s.ravel().astype(np.float64)
        y, z = ((t * c).ravel().astype(np.float64) for t, c in ((state.t_row, state.row_factor),
                                                                (state.t_col, state.col_factor)))
        history.append((
            float(np.linalg.norm(f - padded_product(alpha, np.ascontiguousarray(atoms.T)) - s)),
            float(np.linalg.norm(alpha - state.beta.astype(np.float64))),
            float(np.linalg.norm(s - y)),
            float(np.linalg.norm(s - z)),
        ))
    return {"alpha": alpha, "s": s, "iters_run": iters_run, "history": history, "state": state}


def dense_fill_background(blocks, masks, basis, batch_bytes: int = 1 << 20):
    """fill_background through masked copies of the atoms: (filled, fitted), the reference for the separable fit.

    Each batch of blocks with holes forms its (m, n*n, k) masked atoms, their
    normal matrices and right-hand sides by stacked products with the dense
    (n*n, k) basis, and the fill is atoms @ coef; batches hold about
    batch_bytes of masked atoms and normal matrices. The fit decision is the
    library's, on these normal matrices.
    """
    from scseg.segmentation import MAX_FIT_CONDITION

    n, k, atoms = basis.n, basis.k, basis.atoms
    blocks = np.asarray(blocks, dtype=np.float64).reshape(-1, n, n)
    masks = np.asarray(masks, dtype=bool).reshape(-1, n, n)
    m, keep = len(blocks), ~masks.reshape(-1, n * n)
    fitted, coef = np.ones(m, dtype=bool), np.zeros((m, k, 1))
    holes = np.flatnonzero(masks.any(axis=(1, 2)))
    step = max(1, batch_bytes // (8 * k * (n * n + k)))
    for batch in np.split(holes, range(step, len(holes), step)):
        gram = atoms.T @ np.where(keep[batch, :, None], atoms, 0.0)
        rhs = np.where(keep[batch], blocks.reshape(m, -1)[batch], 0.0)[:, None] @ atoms
        w = np.linalg.eigvalsh(gram)
        ok = (keep[batch].sum(axis=1) >= k) & (w[:, 0] > 0) & (w[:, -1] <= MAX_FIT_CONDITION * w[:, 0])
        fitted[batch] = ok
        coef[batch[ok]] = np.linalg.solve(gram[ok], rhs[ok].swapaxes(1, 2))
    filled = (atoms @ coef).reshape(m, n, n)
    np.copyto(filled, blocks, where=~(masks & fitted[:, None, None]))
    return filled, fitted
