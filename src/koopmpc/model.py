"""Lifted linear models: dictionary construction, EDMD fitting, persistence.

A model consists of lifted dynamics ``z+ = A z + B u`` together with the
projections ``C_x`` (lifted -> state) and ``C_y`` (lifted -> tracked output).
All lifting dictionaries here are identity-augmented: the first ``n_x``
coordinates of the lifted vector are the raw state, so ``C_x = [I 0]`` and
decoding is exact by construction.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.optimize import linprog

from .sets import Zonotope

_KINDS = ("explicit",)
_PRES = ("identity", "planar_heading")


class UnderdeterminedData(Exception):
    """Raised when the regression data cannot pin down the lifted dynamics."""


def _is_number(v, integer: bool = False) -> bool:
    """Whether ``v`` is a real number, or with ``integer`` an integer; a bool
    or a string is neither, and an integral float is not an integer."""
    kinds = (int, np.integer) if integer else (int, float, np.integer, np.floating)
    return isinstance(v, kinds) and not isinstance(v, bool)


def _is_finite(v) -> bool:
    """Whether ``v`` is a real number (see :func:`_is_number`) whose float is
    finite; an integer too large for a float is not."""
    try:
        return _is_number(v) and math.isfinite(v)
    except OverflowError:
        return False


def _as_matrix(M, name: str, finite: bool = True) -> np.ndarray:
    try:
        out = np.asarray(M, dtype=float)
    except OverflowError:
        raise ValueError(f"{name} holds an integer too large for a float") from None
    if out.ndim != 2 or (finite and not np.all(np.isfinite(out))):
        raise ValueError(f"{name} must be a finite 2-D array, got shape {out.shape}")
    return out


@dataclass(frozen=True)
class LiftingSpec:
    """Dictionary of scalar observables evaluated on the (pre-mapped) state.

    ``pre`` maps the raw state to the feature coordinates the dictionary is
    built over: ``identity`` keeps the state as-is, ``planar_heading`` maps
    ``(p_x, p_y, theta)`` to ``(p_x, p_y, sin theta, cos theta)``.  The lifted
    vector is always the raw state followed by the dictionary features, so
    ``n_z = n_x + <feature count>``.

    The one ``kind`` is ``"explicit"``: the caller supplies the exponent
    matrix, one row per monomial over the pre-features.  A polynomial
    dictionary is written out this way; degree 2 over two states is
    ``[[2, 0], [1, 1], [0, 2]]``.
    """

    kind: str
    n_x: int
    pre: str = "identity"
    exponents: np.ndarray | None = None
    _linear: bool = field(default=False, init=False, repr=False, compare=False)  # no exponent > 1

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown lifting kind {self.kind!r}")
        if self.pre not in _PRES:
            raise ValueError(f"unknown pre-map {self.pre!r}")
        if not (_is_number(self.n_x, integer=True) and self.n_x >= 1):
            raise ValueError(f"n_x must be a positive integer, got {self.n_x!r}")
        if self.pre == "planar_heading" and self.n_x != 3:
            raise ValueError("planar_heading pre-map requires n_x == 3")
        n_f = 4 if self.pre == "planar_heading" else self.n_x
        exps = np.asarray(self.exponents, dtype=object)
        if exps.ndim != 2 or exps.shape[1] != n_f:
            raise ValueError(f"exponents must have shape (k, {n_f})")
        # Exponents are stored as 64-bit integers, hence the bound.
        bad = [e for e in exps.flat if not (_is_number(e, integer=True) and 0 <= e < 2**63)]
        if bad:
            raise ValueError(f"exponents must be integers in [0, 2**63), got {bad[0]!r}")
        object.__setattr__(self, "exponents", exps.astype(int))
        object.__setattr__(self, "_linear", np.all(self.exponents < 2))

    @property
    def n_z(self) -> int:
        return self.n_x + self.exponents.shape[0]


def _pre_map(spec: LiftingSpec, X: np.ndarray) -> np.ndarray:
    if spec.pre == "identity":
        return X
    return np.column_stack([X[:, 0], X[:, 1], np.sin(X[:, 2]), np.cos(X[:, 2])])


def _features(spec: LiftingSpec, X: np.ndarray) -> np.ndarray:
    """Dictionary features (beyond the identity block) for a batch of states.
    Exponents all 0 or 1 skip ``pow``; others keep one ``pow`` call, bit for bit."""
    F = _pre_map(spec, X)
    E = spec.exponents
    T = np.where(E == 1, F[:, None, :], 1.0) if spec._linear else F[:, None, :] ** E
    return np.multiply.reduce(T, axis=2)


@dataclass(frozen=True)
class KoopmanModel:
    """Fitted lifted-linear model with state and output projections."""

    A: np.ndarray
    B: np.ndarray
    C_x: np.ndarray
    C_y: np.ndarray
    lifting: LiftingSpec

    def __post_init__(self):
        A = _as_matrix(self.A, "A")
        B = _as_matrix(self.B, "B")
        C_x = _as_matrix(self.C_x, "C_x")
        C_y = _as_matrix(self.C_y, "C_y")
        n_z = self.lifting.n_z
        if A.shape != (n_z, n_z):
            raise ValueError(f"A must be {n_z}x{n_z}, got {A.shape}")
        if B.shape[0] != n_z:
            raise ValueError(f"B must have {n_z} rows, got {B.shape}")
        if C_x.shape != (self.lifting.n_x, n_z):
            raise ValueError(f"C_x must be {self.lifting.n_x}x{n_z}, got {C_x.shape}")
        if C_y.shape[1] != n_z:
            raise ValueError(f"C_y must have {n_z} columns, got {C_y.shape}")
        for name, M in (("A", A), ("B", B), ("C_x", C_x), ("C_y", C_y)):
            object.__setattr__(self, name, M)

    @property
    def n_x(self) -> int:
        return self.C_x.shape[0]

    @property
    def n_u(self) -> int:
        return self.B.shape[1]

    @property
    def n_y(self) -> int:
        return self.C_y.shape[0]

    @property
    def n_z(self) -> int:
        return self.A.shape[0]


def make_model(A, B, lifting: LiftingSpec, output_matrix=None) -> KoopmanModel:
    """Assemble a model around identity-augmented projections.

    ``C_x = [I 0]`` picks the raw state out of the lifted vector; the output
    map is ``output_matrix @ C_x`` (identity over the state by default).
    """
    n_z = lifting.n_z
    C_x = np.hstack([np.eye(lifting.n_x), np.zeros((lifting.n_x, n_z - lifting.n_x))])
    if output_matrix is None:
        output_matrix = np.eye(lifting.n_x)
    C = _as_matrix(output_matrix, "output_matrix")
    if C.shape[1] != lifting.n_x:
        raise ValueError(f"output_matrix must have {lifting.n_x} columns")
    return KoopmanModel(A=A, B=B, C_x=C_x, C_y=C @ C_x, lifting=lifting)


# --- pointwise operations -----------------------------------------------------

def lift(model: KoopmanModel, x) -> np.ndarray:
    """[x; features(x)]; a float64 (n_x,) ndarray x is taken as it is."""
    if not (type(x) is np.ndarray and x.dtype == float and x.shape == (model.n_x,)):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.shape != (model.n_x,):
            raise ValueError(f"state must have shape ({model.n_x},), got {x.shape}")
    return np.concatenate([x, _features(model.lifting, x[None, :])[0]])


def lift_many(model: KoopmanModel, X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.n_x:
        raise ValueError(f"states must have shape (n, {model.n_x}), got {X.shape}")
    return np.hstack([X, _features(model.lifting, X)])


# --- training data ---------------------------------------------------------------

@dataclass(frozen=True)
class TrajectoryData:
    """Trajectories stacked once, read-only: every trajectory's ``states`` in
    order, their ``inputs``, and each one's state count in ``lengths``; a
    trajectory has one more state than inputs. :meth:`from_pairs` takes
    (states, inputs) pairs of any lengths, :meth:`batch` trajectories of one
    length, and :attr:`trajectories` gives the pairs back as views."""

    states: np.ndarray
    inputs: np.ndarray
    lengths: np.ndarray

    def __post_init__(self):
        states, inputs = np.array(self.states, dtype=float), np.array(self.inputs, dtype=float)
        lengths = np.array(self.lengths, dtype=int)
        if not (states.ndim == inputs.ndim == 2 and lengths.ndim == 1 and np.all(lengths >= 1)
                and lengths.sum() == len(states) == len(inputs) + len(lengths)):
            raise ValueError(f"lengths {lengths.tolist()} do not split {states.shape} states "
                             f"and {inputs.shape} inputs into trajectories")
        for name, value in (("states", states), ("inputs", inputs), ("lengths", lengths)):
            value.flags.writeable = False
            object.__setattr__(self, name, value)
        # Finiteness is one test over the stack; only a failure goes through
        # the trajectories to name the first offending one.
        if not (np.isfinite(states).all() and np.isfinite(inputs).all()):
            for i, (s, u) in enumerate(self.trajectories):
                _as_matrix(s, f"trajectory {i} states")
                _as_matrix(u, f"trajectory {i} inputs")

    @classmethod
    def from_pairs(cls, trajectories) -> "TrajectoryData":
        """The (states, inputs) pairs of ``trajectories``, each shape-checked, stacked."""
        pairs = []
        for i, (states, inputs) in enumerate(trajectories):
            states = _as_matrix(states, f"trajectory {i} states", finite=False)
            inputs = _as_matrix(inputs, f"trajectory {i} inputs", finite=False)
            if states.shape[0] != inputs.shape[0] + 1:
                raise ValueError(
                    f"trajectory {i}: expected one more state than input, got "
                    f"{states.shape[0]} states and {inputs.shape[0]} inputs"
                )
            if pairs and (states.shape[1], inputs.shape[1]) != tuple(a.shape[1] for a in pairs[0]):
                raise ValueError("all trajectories must share state/input dimensions")
            pairs.append((states, inputs))
        states, inputs = zip(*pairs) if pairs else ([np.empty((0, 0))],) * 2
        return cls(np.concatenate(states), np.concatenate(inputs), [len(s) for s, _ in pairs])

    @classmethod
    def batch(cls, states, inputs) -> "TrajectoryData":
        """The trajectories ``zip(states, inputs)`` of (n_traj, T+1, n_x) states
        and (n_traj, T, n_u) inputs."""
        states, inputs = np.asarray(states, dtype=float), np.asarray(inputs, dtype=float)
        if not (states.ndim == inputs.ndim == 3 and len(states) == len(inputs)
                and states.shape[1] == inputs.shape[1] + 1):
            raise ValueError(
                "a batch needs (n_traj, T+1, n_x) states and (n_traj, T, n_u) inputs, "
                f"got shapes {states.shape} and {inputs.shape}"
            )
        return cls(states.reshape(-1, states.shape[2]), inputs.reshape(-1, inputs.shape[2]),
                   [states.shape[1]] * len(states))

    @property
    def trajectories(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Each trajectory's (states, inputs), as read-only views of the stack."""
        starts = np.cumsum(self.lengths) - self.lengths
        return [(self.states[a : a + n], self.inputs[a - i : a - i + n - 1])
                for i, (a, n) in enumerate(zip(starts, self.lengths))]

    @property
    def n_x(self) -> int:
        return self.states.shape[1]

    @property
    def n_u(self) -> int:
        return self.inputs.shape[1]

    def _transition_rows(self) -> np.ndarray:
        """The rows of ``states`` that are a transition's x; the row after each is its x+."""
        return np.delete(np.arange(len(self.states)), np.cumsum(self.lengths) - 1)


# --- fitting ------------------------------------------------------------------------

def fit_edmd(
    data: TrajectoryData,
    lifting: LiftingSpec,
    ridge: float = 1e-8,
    output_matrix=None,
) -> KoopmanModel:
    """Least-squares fit of the lifted transition matrices from trajectory data.

    Solves ``min_{A,B} sum ||A psi(x) + B u - psi(x+)||^2`` (plus an optional
    ridge penalty on the coefficients).  With ``ridge=0`` the data must make
    the regression full-rank, otherwise :class:`UnderdeterminedData` is raised.
    """
    if ridge < 0:
        raise ValueError("ridge must be non-negative")
    if not data.lengths.size:
        raise UnderdeterminedData("no trajectories provided")
    if data.n_x != lifting.n_x:
        raise ValueError(f"data has n_x={data.n_x} but lifting expects {lifting.n_x}")
    n_z, n_u = lifting.n_z, data.n_u
    probe = make_model(np.zeros((n_z, n_z)), np.zeros((n_z, n_u)), lifting, output_matrix)
    # Each state is lifted once; the regression picks its x and x+ rows. A
    # feature that overflows is named below, before least squares runs on it.
    with np.errstate(over="ignore", invalid="ignore"):
        Z, rows = lift_many(probe, data.states), data._transition_rows()
    if not (finite := np.isfinite(Z)).all():
        raise ValueError(f"lifting of kind {lifting.kind!r} maps {np.sum(~finite.all(axis=1))} "
                         "training states to non-finite features")
    Phi = np.hstack([Z[rows], data.inputs])
    Psi_next = Z[rows + 1]
    n_cols = n_z + n_u
    if Phi.shape[0] < n_cols:
        raise UnderdeterminedData(
            f"{Phi.shape[0]} transitions cannot determine {n_cols} coefficient columns"
        )
    if ridge == 0.0:
        Theta_T, _, rank, _ = np.linalg.lstsq(Phi, Psi_next, rcond=None)
        if rank < n_cols:
            raise UnderdeterminedData(
                f"regressor matrix has rank {rank} < {n_cols}; "
                "add richer trajectories or use ridge > 0"
            )
    else:
        G = Phi.T @ Phi + ridge * np.eye(n_cols)
        Theta_T = np.linalg.solve(G, Phi.T @ Psi_next)
    Theta = Theta_T.T
    return make_model(Theta[:, :n_z], Theta[:, n_z:], lifting, output_matrix)


# --- disturbance sets --------------------------------------------------------------------

@dataclass(frozen=True)
class DisturbanceModel:
    """Bounded process (lifted) and measurement (state) disturbance sets."""

    W: Zonotope
    V: Zonotope

    def __post_init__(self):
        for name, Z in (("W", self.W), ("V", self.V)):
            if not _zonotope_contains_origin(Z):
                raise ValueError(f"{name} must contain the origin")


def _zonotope_contains_origin(Z: Zonotope, tol: float = 1e-9) -> bool:
    if np.allclose(Z.center, 0.0, atol=tol):
        return True
    # Feasibility of c + G xi = 0 with ||xi||_inf <= 1.
    n, g = Z.generators.shape
    if g == 0:
        return bool(np.max(np.abs(Z.center)) <= tol)
    res = linprog(
        c=np.zeros(g),
        A_eq=Z.generators,
        b_eq=-Z.center,
        bounds=[(-1.0, 1.0)] * g,
        method="highs",
    )
    return bool(res.status == 0)


# --- persistence -----------------------------------------------------------------------

def _lifting_to_doc(spec: LiftingSpec) -> dict:
    return {"kind": spec.kind, "params": {"pre": spec.pre, "exponents": spec.exponents.tolist()}}


def _lifting_from_doc(doc: dict, n_x: int) -> LiftingSpec:
    """The lifting of a ``{"kind", "params"}`` document. An unknown kind is
    named before ``params`` is read, and a missing ``exponents`` after it."""
    kind, params = doc.get("kind"), doc.get("params", {})
    if kind not in _KINDS:
        raise ValueError(f"unknown lifting kind {kind!r}")
    if "exponents" not in params:
        raise ValueError(f"lifting.params of kind {kind!r} needs key 'exponents'")
    return LiftingSpec(kind=kind, n_x=n_x, pre=params.get("pre", "identity"),
                       exponents=params.get("exponents"))


def save_model(model: KoopmanModel, path) -> None:
    doc = {
        "n_x": model.n_x,
        "n_u": model.n_u,
        "n_y": model.n_y,
        "n_z": model.n_z,
        "lifting": _lifting_to_doc(model.lifting),
        "A": model.A.tolist(),
        "B": model.B.tolist(),
        "C_x": model.C_x.tolist(),
        "C_y": model.C_y.tolist(),
    }
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def load_model(path) -> KoopmanModel:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from exc
    try:
        sizes = {key: doc[key] for key in ("n_x", "n_u", "n_y", "n_z")}
        for key, size in sizes.items():
            if not _is_number(size, integer=True):
                raise ValueError(f"{path}: {key} must be an integer, got {size!r}")
        lifting = _lifting_from_doc(doc["lifting"], sizes["n_x"])
        model = KoopmanModel(A=doc["A"], B=doc["B"], C_x=doc["C_x"], C_y=doc["C_y"],
                             lifting=lifting)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{path} is missing required model fields: {exc}") from exc
    for key in ("n_u", "n_y", "n_z"):
        if sizes[key] != getattr(model, key):
            raise ValueError(f"{path}: declared {key}={sizes[key]} does not match matrices")
    return model


def save_trajectories(data: TrajectoryData, path) -> None:
    """CSV with one row per time step; the final row of each trajectory has no input."""
    header = (
        ["traj_id", "t"]
        + [f"x_{i}" for i in range(data.n_x)]
        + [f"u_{i}" for i in range(data.n_u)]
    )
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for traj_id, (states, inputs) in enumerate(data.trajectories):
            for t, x in enumerate(states):
                u = [repr(float(v)) for v in inputs[t]] if t < len(inputs) else [""] * data.n_u
                writer.writerow([traj_id, t] + [repr(float(v)) for v in x] + u)


def load_trajectories(path) -> TrajectoryData:
    """The trajectories of a CSV laid out as :func:`save_trajectories` writes it:
    each trajectory's rows are contiguous and its ``t`` reads 0, 1, 2, ... in
    file order. A row that breaks this raises ValueError naming ``path:line``."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path} is empty") from None
        n_x = sum(1 for h in header if h.startswith("x_"))
        n_u = sum(1 for h in header if h.startswith("u_"))
        expected = ["traj_id", "t"] + [f"x_{i}" for i in range(n_x)] + [f"u_{i}" for i in range(n_u)]
        if header != expected or n_x == 0 or n_u == 0:
            raise ValueError(f"{path}: unexpected header {header}")
        rows = [(row, line_no) for line_no, row in enumerate(reader, start=2) if row]

    # Each trajectory's steps, in file order; its rows are contiguous.
    by_traj: dict[str, list[tuple[list[float], list[float] | None]]] = {}
    traj_id = None
    for row, line_no in rows:
        if len(row) != len(expected):
            raise ValueError(f"{path}:{line_no}: expected {len(expected)} cells, got {len(row)}")
        try:
            x = [float(v) for v in row[2 : 2 + n_x]]
            u_cells = row[2 + n_x :]
            u = None if all(c == "" for c in u_cells) else [float(v) for v in u_cells]
        except ValueError:
            raise ValueError(f"{path}:{line_no}: non-numeric cell") from None
        if row[0] not in by_traj:
            by_traj[row[0]] = []
        elif row[0] != traj_id:
            raise ValueError(f"{path}:{line_no}: the rows of trajectory {row[0]} are not contiguous")
        traj_id, steps = row[0], by_traj[row[0]]
        if row[1] != str(len(steps)):
            raise ValueError(f"{path}:{line_no}: trajectory {traj_id} needs t = {len(steps)} "
                             f"here, got {row[1]!r}")
        steps.append((x, u))

    for traj_id, steps in by_traj.items():
        if [u is None for _, u in steps] != [False] * (len(steps) - 1) + [True]:
            raise ValueError(f"{path}: trajectory {traj_id} must leave exactly the last input empty")
    flat = [step for steps in by_traj.values() for step in steps]
    return TrajectoryData(np.array([x for x, _ in flat]).reshape(-1, n_x),
                          np.array([u for _, u in flat if u is not None]).reshape(-1, n_u),
                          [len(steps) for steps in by_traj.values()])
