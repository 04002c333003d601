"""Dense complex-matrix foundation: states, effects, probabilities, partial traces.

Everything is double precision and validated eagerly at construction; the
operations below assume valid inputs and return validated values. All values
are immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

DEFAULT_TOL = 1e-10
DEFAULT_RANK_CUTOFF = 1e-10


class ValidationError(ValueError):
    """An operator failed its construction invariants."""


class DimensionMismatch(ValidationError):
    """Operands act on spaces of incompatible dimension."""


def check_tolerance(tol) -> None:
    """Reject a tolerance outside [0, 1); written so that NaN fails too. At 1
    or above, a zero matrix would pass as a state and every probability
    check would pass."""
    if not 0 <= tol < 1:
        raise ValidationError(f"tolerance must be nonnegative and below 1, got {tol!r}")


def as_complex_matrix(entries) -> np.ndarray:
    """Coerce to a square complex128 array, rejecting NaN/Inf entries."""
    m = np.array(entries, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
        raise ValidationError(f"expected a nonempty square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValidationError("matrix contains NaN or Inf entries")
    return m


def hermiticity_residual(m: np.ndarray) -> float:
    return float(np.max(np.abs(m - m.conj().T)))


def _validated_hermitian(entries, tol: float, what: str) -> np.ndarray:
    m = as_complex_matrix(entries)
    res = hermiticity_residual(m)
    if res > tol:
        raise ValidationError(f"{what} is not Hermitian: residual {res:.3e} > {tol:.3e}")
    # store the exactly Hermitian part so downstream traces are real to
    # machine precision
    return 0.5 * (m + m.conj().T)


@dataclass(frozen=True)
class State:
    """Density matrix: Hermitian, positive semidefinite, unit trace."""

    matrix: np.ndarray
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        check_tolerance(self.tol)
        m = _validated_hermitian(self.matrix, self.tol, "state")
        lo = float(np.min(np.linalg.eigvalsh(m)))
        if lo < -self.tol:
            raise ValidationError(f"state is not PSD: min eigenvalue {lo:.3e}")
        tr = float(np.trace(m).real)
        if abs(tr - 1.0) > self.tol:
            raise ValidationError(f"state trace is {tr!r}, expected 1")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def purity(self) -> float:
        return float(np.trace(self.matrix @ self.matrix).real)


@dataclass(frozen=True)
class Effect:
    """Event observable: Hermitian with spectrum in [0, 1]."""

    matrix: np.ndarray
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        check_tolerance(self.tol)
        m = _validated_hermitian(self.matrix, self.tol, "effect")
        vals = np.linalg.eigvalsh(m)
        if vals[0] < -self.tol or vals[-1] > 1.0 + self.tol:
            raise ValidationError(
                f"effect spectrum [{vals[0]:.3e}, {vals[-1]:.3e}] leaves [0, 1]"
            )
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _first(bad: np.ndarray) -> int | None:
    """Index of the first True entry, or None."""
    return int(np.argmax(bad)) if bad.any() else None


@dataclass(frozen=True)
class StateStack:
    """An (n, d, d) stack of density matrices sharing one tolerance.

    Every member passes the checks of `State` at construction, batched over
    the stack (one `eigvalsh` call); an error names the first failing member.
    Indexing gives a member as a `State` without checking it again.
    """

    matrices: np.ndarray
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        check_tolerance(self.tol)
        # no copy: the array stored is the symmetrized one made below
        m = np.asarray(self.matrices, dtype=np.complex128)
        if m.ndim != 3 or m.shape[1] != m.shape[2] or m.shape[1] == 0:
            raise ValidationError(
                f"expected a stack of nonempty square matrices, got shape {m.shape}")
        if (k := _first(~np.isfinite(m).all(axis=(1, 2)))) is not None:
            raise ValidationError(f"member {k} contains NaN or Inf entries")
        res = np.max(np.abs(m - m.conj().swapaxes(1, 2)), axis=(1, 2))
        if (k := _first(res > self.tol)) is not None:
            raise ValidationError(
                f"member {k} is not Hermitian: residual {res[k]:.3e} > {self.tol:.3e}")
        m = 0.5 * (m + m.conj().swapaxes(1, 2))
        lo = np.linalg.eigvalsh(m)[:, 0]
        if (k := _first(lo < -self.tol)) is not None:
            raise ValidationError(f"member {k} is not PSD: min eigenvalue {lo[k]:.3e}")
        tr = np.trace(m, axis1=1, axis2=2).real
        if (k := _first(np.abs(tr - 1.0) > self.tol)) is not None:
            raise ValidationError(f"member {k} trace is {float(tr[k])!r}, expected 1")
        m.setflags(write=False)
        object.__setattr__(self, "matrices", m)

    @property
    def dim(self) -> int:
        return self.matrices.shape[1]

    def __len__(self) -> int:
        return self.matrices.shape[0]

    def __getitem__(self, k: int) -> State:
        return _unchecked(State, matrix=self.matrices[int(k)], tol=self.tol)


def _unchecked(cls, **fields):
    """A `cls` holding already-validated `fields`, built without its checks."""
    x = object.__new__(cls)  # bypasses the frozen __setattr__ and the checks
    x.__dict__.update(fields)
    return x


def stack_states(states, dim: int) -> StateStack:
    """`states` as one `StateStack` of dim `dim`, the operand of the batched
    evaluations: a stack as it is, a list of validated `State`s stacked
    unchecked at the largest member tolerance."""
    if isinstance(states, StateStack):
        if states.dim != dim:
            raise DimensionMismatch(f"stack has dim {states.dim}, expected {dim}")
        return states
    for k, x in enumerate(states):
        if x.dim != dim:
            raise DimensionMismatch(f"state {k} has dim {x.dim}, expected {dim}")
    matrices = np.array([x.matrix for x in states], dtype=np.complex128).reshape(-1, dim, dim)
    matrices.setflags(write=False)
    return _unchecked(StateStack, matrices=matrices,
                      tol=max((x.tol for x in states), default=DEFAULT_TOL))


def prob_batch(a: Effect, states: StateStack) -> np.ndarray:
    """Event probabilities Tr[A X_k] over a stack of states, each given the
    checks of `prob` and clamped to [0, 1]; an error names the first failing index."""
    if states.dim != a.dim:
        raise DimensionMismatch(f"effect dim {a.dim} != state dim {states.dim}")
    t = np.einsum("ij,nji->n", a.matrix, states.matrices)
    return clamp_probabilities(t, a.tol + states.tol, "state")


def clamp_probabilities(t: np.ndarray, tol: float, what: str) -> np.ndarray:
    """The real parts of the traces `t`, clamped to [0, 1] after checking that each is
    real and inside [0, 1] within `tol`; an error names the first failing `what` by index."""
    p = t.real
    bad = (np.abs(t.imag) > tol) | (p < -tol) | (p > 1.0 + tol)
    if (k := _first(bad)) is not None:
        if abs(t.imag[k]) > tol:
            raise ValidationError(
                f"probability trace of {what} {k} has imaginary residue {t.imag[k]:.3e}")
        raise ValidationError(
            f"probability {float(p[k])!r} of {what} {k} outside [0, 1] beyond tolerance")
    return np.minimum(np.maximum(p, 0.0), 1.0)


def prob(a: Effect, x: State) -> float:
    """Event probability Tr[A X], clamped to [0, 1] within tolerance: the
    one-state case of `prob_batch`."""
    return float(prob_batch(a, stack_states([x], x.dim))[0])


def _require_same_dim(x1: State, x2: State) -> None:
    """Raise DimensionMismatch unless the two states share one dimension."""
    if x1.dim != x2.dim:
        raise DimensionMismatch(f"state dims differ: {x1.dim} vs {x2.dim}")


def _overlap(x1: State, x2: State) -> float:
    """Tr(X1 X2): zero exactly when two states have disjoint supports."""
    _require_same_dim(x1, x2)
    return float(np.trace(x1.matrix @ x2.matrix).real)


def complement(a: Effect) -> Effect:
    """The effect of the negated event: I - A."""
    return Effect(np.eye(a.dim) - a.matrix, a.tol)


def _spectral_projector(h: np.ndarray, tol: float) -> Effect:
    """Projector onto the eigenvectors of the Hermitian h whose eigenvalues
    exceed DEFAULT_RANK_CUTOFF times its largest eigenvalue magnitude."""
    vals, vecs = np.linalg.eigh(h)
    v = vecs[:, vals > DEFAULT_RANK_CUTOFF * float(np.max(np.abs(vals)))]
    p = v @ v.conj().T
    # symmetrized: at tolerance 0 a raw v v^dag can fail the Hermitian check
    return Effect(0.5 * (p + p.conj().T), tol)


def support_projector(x: State) -> Effect:
    """Orthogonal projector onto the range of x: the eigenvectors whose
    eigenvalues exceed DEFAULT_RANK_CUTOFF times the largest one."""
    return _spectral_projector(x.matrix, x.tol)


def kernel_projector(x: State) -> Effect:
    """Orthogonal projector onto the null space of x (complement of support)."""
    return complement(support_projector(x))


def partial_trace(m: np.ndarray, dims, keep) -> np.ndarray:
    """Trace out all tensor factors not listed in `keep`.

    `dims` factorizes the matrix dimension; `keep` holds factor indices to
    retain, in their original order.
    """
    m = as_complex_matrix(m)
    dims = [int(d) for d in dims]
    if prod(dims) != m.shape[0]:
        raise DimensionMismatch(f"dims {dims} do not factorize dimension {m.shape[0]}")
    keep = set(int(k) for k in keep)
    if not keep <= set(range(len(dims))):
        raise DimensionMismatch(f"keep indices {keep} outside factor range")
    cur = list(dims)
    t = m.reshape(cur + cur)
    for idx in sorted(set(range(len(dims))) - keep, reverse=True):
        t = np.trace(t, axis1=idx, axis2=idx + len(cur))
        cur.pop(idx)
    d = prod(cur) if cur else 1
    return t.reshape(d, d)


def random_state(dim: int, seed) -> State:
    """Ginibre-induced random density matrix, deterministic per seed."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    x = g @ g.conj().T
    return State(x / float(np.trace(x).real))


def random_effect(dim: int, seed) -> Effect:
    """Random Hermitian matrix spectrally rescaled into [0, 1]."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = 0.5 * (g + g.conj().T)
    vals, vecs = np.linalg.eigh(h)
    spread = float(vals[-1] - vals[0])
    scaled = (vals - vals[0]) / spread if spread > 0 else np.full(dim, 0.5)
    return Effect(vecs @ np.diag(scaled) @ vecs.conj().T)


def pure_state(vector) -> State:
    """Rank-one density matrix |v><v| for a unit vector v."""
    v = np.asarray(vector, dtype=np.complex128).reshape(-1)
    norm = float(np.linalg.norm(v))
    if abs(norm - 1.0) > DEFAULT_TOL:
        raise ValidationError(f"vector norm is {norm!r}, expected 1")
    return State(np.outer(v, v.conj()))


def basis_vector(dim: int, index: int) -> np.ndarray:
    v = np.zeros(dim, dtype=np.complex128)
    v[index] = 1.0
    return v


def random_orthonormal(dim: int, count: int, seed) -> np.ndarray:
    """`count` orthonormal columns of a Haar-random unitary."""
    if count > dim:
        raise DimensionMismatch(f"cannot fit {count} orthonormal vectors in dim {dim}")
    rng = np.random.default_rng(seed)  # a Generator passes through unchanged
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    q = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    return q[:, :count]


def matrix_to_json(m: np.ndarray) -> dict:
    """Wire format for matrices: {"dim", "re", "im"}, row-major."""
    m = as_complex_matrix(m)
    return {"dim": m.shape[0], "re": m.real.tolist(), "im": m.imag.tolist()}


def matrix_from_json(obj: dict) -> np.ndarray:
    try:
        dim = int(obj["dim"])
        m = np.asarray(obj["re"], dtype=float) + 1j * np.asarray(obj["im"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed matrix payload: {exc}") from None
    if m.shape != (dim, dim):
        raise ValidationError(f"matrix payload shape {m.shape} does not match dim {dim}")
    return as_complex_matrix(m)
