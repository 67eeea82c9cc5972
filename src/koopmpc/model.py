"""Lifted linear models: dictionary construction, EDMD fitting, training-data CSVs.

A model consists of lifted dynamics ``z+ = A z + B u`` together with the
output projection ``C_y`` (lifted -> tracked output). All lifting
dictionaries here are identity-augmented: the first ``n_x`` coordinates of
the lifted vector are the raw state, so the state projection is
``C_x = [I 0]``, formed on read, and decoding is exact by construction.
"""

from __future__ import annotations

import csv
import math
from array import array
from dataclasses import dataclass, field

import numpy as np

from .qp import OPTIMAL, QuadraticProgram, solve
from .sets import CONTAINS_TOL, Zonotope

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


def _as_vector(v, n: int, name: str) -> np.ndarray:
    """v as a float (n,) vector; a float64 ndarray of that shape is taken as it is."""
    if type(v) is np.ndarray and v.dtype == float and v.shape == (n,):
        return v
    out = np.atleast_1d(np.asarray(v, dtype=float))
    if out.shape != (n,):
        raise ValueError(f"{name} must have shape ({n},), got {out.shape}")
    return out


@dataclass(frozen=True)
class LiftingSpec:
    """Dictionary of scalar observables evaluated on the (pre-mapped) state.

    ``pre`` maps the raw state to the feature coordinates the dictionary is
    built over: ``identity`` keeps the state as-is, ``planar_heading`` maps
    ``(p_x, p_y, theta)`` to ``(p_x, p_y, sin theta, cos theta)``.  The lifted
    vector is always the raw state followed by the dictionary features, so
    ``n_z = n_x + <feature count>``.

    The caller supplies the exponent matrix, one row per monomial over the
    pre-features.  A polynomial dictionary is written out this way; degree 2
    over two states is ``[[2, 0], [1, 1], [0, 2]]``.
    """

    n_x: int
    pre: str = "identity"
    exponents: np.ndarray | None = None
    # One column or none per monomial: the column, or n_f (a column of ones).
    _columns: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
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
        object.__setattr__(self, "exponents", E := exps.astype(int))
        if np.all(E < 2) and np.all(E.sum(axis=1) < 2):
            object.__setattr__(self, "_columns", np.where(E.any(axis=1), E.argmax(axis=1), n_f))

    @property
    def n_z(self) -> int:
        return self.n_x + self.exponents.shape[0]


def _lifted(spec: LiftingSpec, X: np.ndarray) -> np.ndarray:
    """[X, features(X)] of a batch of states, one (n, n_z) array, the trig
    pre-map filled in place. Monomials of one column or none (the unicycle's)
    gather it, pow's other factors being exact 1.0s, bit for bit; the rest take ``pow``."""
    n_x, cols = spec.n_x, spec._columns
    if spec.pre == "identity" and cols is None:
        F = X
    else:  # the pre-features, then a column of ones for the gather
        F = np.ones((len(X), spec.exponents.shape[1] + (cols is not None)))
        if spec.pre == "identity":
            F[:, :n_x] = X
        else:
            F[:, :2] = X[:, :2]
            np.sin(X[:, 2], out=F[:, 2])
            np.cos(X[:, 2], out=F[:, 3])
    if cols is not None:
        P = F[:, cols]
    else:
        P = np.multiply.reduce(F[:, None, :] ** spec.exponents, axis=2)
    return np.concatenate((X, P), axis=1)


@dataclass(frozen=True)
class KoopmanModel:
    """Fitted lifted-linear model with its output projection ``C_y``; the
    state projection ``C_x = [I 0]`` of its identity-augmented lifting is
    formed on each read."""

    A: np.ndarray
    B: np.ndarray
    C_y: np.ndarray
    lifting: LiftingSpec

    def __post_init__(self):
        A = _as_matrix(self.A, "A")
        B = _as_matrix(self.B, "B")
        C_y = _as_matrix(self.C_y, "C_y")
        n_z = self.lifting.n_z
        if A.shape != (n_z, n_z):
            raise ValueError(f"A must be {n_z}x{n_z}, got {A.shape}")
        if B.shape[0] != n_z:
            raise ValueError(f"B must have {n_z} rows, got {B.shape}")
        if C_y.shape[1] != n_z:
            raise ValueError(f"C_y must have {n_z} columns, got {C_y.shape}")
        for name, M in (("A", A), ("B", B), ("C_y", C_y)):
            object.__setattr__(self, name, M)

    @property
    def C_x(self) -> np.ndarray:
        return np.eye(self.n_x, self.n_z)

    @property
    def n_x(self) -> int:
        return self.lifting.n_x

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
    """Assemble a model whose output map is ``output_matrix @ C_x`` (identity
    over the state by default), ``C_x = [I 0]`` picking the raw state out of
    the lifted vector."""
    if output_matrix is None:
        output_matrix = np.eye(lifting.n_x)
    C = _as_matrix(output_matrix, "output_matrix")
    if C.shape[1] != lifting.n_x:
        raise ValueError(f"output_matrix must have {lifting.n_x} columns")
    return KoopmanModel(A=A, B=B, C_y=C @ np.eye(lifting.n_x, lifting.n_z), lifting=lifting)


# --- pointwise operations -----------------------------------------------------

def lift(model: KoopmanModel, x) -> np.ndarray:
    """[x; features(x)]; a float64 (n_x,) ndarray x is taken as it is."""
    return _lifted(model.lifting, _as_vector(x, model.n_x, "state")[None, :])[0]


def lift_many(model: KoopmanModel, X) -> np.ndarray:
    """The (n, n_z) lifts of the (n, n_x) states X."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.n_x:
        raise ValueError(f"states must have shape (n, {model.n_x}), got {X.shape}")
    return _lifted(model.lifting, X)


# --- training data ---------------------------------------------------------------

@dataclass(frozen=True)
class TrajectoryData:
    """Trajectories stacked once, read-only: every trajectory's ``states`` in
    order, their ``inputs``, and each one's state count in ``lengths``; a
    trajectory has one more state than inputs. :meth:`from_pairs` takes
    (states, inputs) pairs of any lengths, and :attr:`trajectories` gives the
    pairs back as views."""

    states: np.ndarray
    inputs: np.ndarray
    lengths: np.ndarray

    def __post_init__(self):
        self._keep(np.array(self.states, dtype=float), np.array(self.inputs, dtype=float))

    @classmethod
    def _handed(cls, states, inputs, lengths) -> TrajectoryData:
        """Float stacks made for this object alone, kept read-only without a copy."""
        object.__setattr__(data := object.__new__(cls), "lengths", lengths)
        data._keep(states, inputs)
        return data

    def _keep(self, states, inputs):
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
        return cls._handed(np.concatenate(states), np.concatenate(inputs),
                           [len(s) for s, _ in pairs])

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
    # Each state is lifted once; the regression picks its x and x+ rows. A
    # feature that overflows is named below, before least squares runs on it.
    with np.errstate(over="ignore", invalid="ignore"):
        Z, rows = _lifted(lifting, data.states), data._transition_rows()
    if not (finite := np.isfinite(Z)).all():
        raise ValueError(f"the lifting maps {np.sum(~finite.all(axis=1))} "
                         "training states to non-finite features")
    Phi = np.hstack([Z[rows], data.inputs])
    Psi_next = Z[1:][rows]  # Z[rows + 1], without a second index array
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


def _zonotope_contains_origin(Z: Zonotope) -> bool:
    """Whether c + G xi = 0 for some |xi|_inf <= 1: a center within
    ``sets.CONTAINS_TOL`` of the origin, or else an Optimal min 0.5 |xi|^2
    s.t. G xi = -c, -1 <= xi <= 1 (PrimalInfeasible when no such xi exists)."""
    if (np.abs(Z.center) <= CONTAINS_TOL).all():  # np.allclose(c, 0, atol=1e-9), written out
        return True
    g = Z.generators.shape[1]
    if g == 0:  # a point: its center, which the test above has just judged
        return False
    box = np.vstack((np.eye(g), -np.eye(g)))
    qp = QuadraticProgram(P=np.eye(g), q=np.zeros(g), A_eq=Z.generators, b_eq=-Z.center,
                          A_in=box, b_in=np.ones(2 * g))
    return solve(qp).status == OPTIMAL


# --- the lifting document and training-data files -----------------------------------------

def _lifting_from_doc(doc: dict, n_x: int) -> LiftingSpec:
    """The lifting of a scenario's ``{"kind", "params"}`` object, whose one kind
    is ``"explicit"``. An unknown kind is named before ``params`` is read, and
    an unknown or missing key of ``params`` after it; a ``params`` that is not
    an object is named as ``lifting.params``."""
    kind, params = doc.get("kind"), doc.get("params", {})
    if kind != "explicit":
        raise ValueError(f"unknown lifting kind {kind!r}")
    if not isinstance(params, dict):
        raise ValueError(f"lifting.params must be an object, got {params!r}")
    if unknown := sorted(set(params) - {"pre", "exponents"}):
        raise ValueError(f"unknown lifting.params key {unknown[0]!r} (allowed: exponents, pre)")
    if "exponents" not in params:
        raise ValueError(f"lifting.params of kind {kind!r} needs key 'exponents'")
    return LiftingSpec(n_x=n_x, pre=params.get("pre", "identity"),
                       exponents=params.get("exponents"))


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
    file order. A row that breaks this raises ValueError naming ``path:line``;
    a trajectory whose inputs are not all given but the last is named once
    every row has passed. The file is read in one pass, each row's floats
    appended to the flat stacks as it is read."""
    states, inputs, lengths = array("d"), array("d"), {}  # lengths: each trajectory's, in order
    traj_id, ended, bad = None, True, None  # ended: the last row had no input
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
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(expected):
                raise ValueError(f"{path}:{line_no}: expected {len(expected)} cells, got {len(row)}")
            try:
                x = [float(v) for v in row[2 : 2 + n_x]]
                u_cells = row[2 + n_x :]
                u = None if all(c == "" for c in u_cells) else [float(v) for v in u_cells]
            except ValueError:
                raise ValueError(f"{path}:{line_no}: non-numeric cell") from None
            if bad is None and (row[0] == traj_id) == ended:
                bad = traj_id  # a row without input was not its trajectory's last, or one with was
            if row[0] != traj_id:
                if row[0] in lengths:
                    raise ValueError(f"{path}:{line_no}: the rows of trajectory {row[0]} "
                                     "are not contiguous")
                traj_id, lengths[row[0]] = row[0], 0
            if row[1] != str(lengths[traj_id]):
                raise ValueError(f"{path}:{line_no}: trajectory {traj_id} needs t = "
                                 f"{lengths[traj_id]} here, got {row[1]!r}")
            states.extend(x)
            inputs.extend(u or ())
            lengths[traj_id] += 1
            ended = u is None
    bad = traj_id if bad is None and not ended else bad  # the last trajectory's last row
    if bad is not None:
        raise ValueError(f"{path}: trajectory {bad} must leave exactly the last input empty")
    return TrajectoryData._handed(np.frombuffer(states).reshape(-1, n_x),
                                  np.frombuffer(inputs).reshape(-1, n_u), list(lengths.values()))
