"""Deferred-evaluation expression nodes over normalized (and plain) matrices.

A :class:`LazyExpr` is an immutable DAG node describing one operator of the
paper's Table 1 applied to child expressions: transpose, matrix
multiplication, cross-product, the aggregations (``rowSums`` / ``colSums`` /
``sum``), element-wise scalar arithmetic, element-wise functions, element-wise
matrix arithmetic, and pseudo-inversion.  Building an expression performs no
linear algebra; :meth:`LazyExpr.evaluate` hands the graph to
:mod:`repro.core.lazy.evaluator`, which executes it through the *existing*
operator overloads and rewrite rules, so the factorized execution and the
closure property are inherited unchanged from the eager path.

Two properties drive the cross-iteration memoization:

``invariant``
    True when every leaf under the node is immutable -- the normalized data
    matrix itself or an explicitly pinned :func:`constant`.  Only invariant
    nodes are memoized: a node involving a per-iteration operand (the weight
    vector of a GD loop, say) is recomputed every time, while its invariant
    subexpressions are served from the :class:`~repro.core.lazy.cache.FactorizedCache`.

``key``
    A structural hash of the subtree: the operator name, its parameters and
    the child keys.  Leaves hash by identity token (normalized matrices) or by
    content digest (pinned constants), so expressions over different operands
    never collide -- ``crossprod(2 * T)`` and ``crossprod(3 * T)`` occupy
    distinct cache slots.
"""

from __future__ import annotations

import hashlib
import itertools
import types
from typing import Any, Callable, Optional, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import ShapeError
from repro.la.types import ensure_2d, is_matrix_like, is_sparse

Scalar = Union[int, float, np.floating, np.integer]

#: Fresh identity tokens for leaves that cannot (or should not) be hashed by
#: content: normalized matrices and mutable per-iteration operands.
_token_counter = itertools.count()


def _is_scalar(value: object) -> bool:
    return isinstance(value, (int, float, np.floating, np.integer)) and not isinstance(value, bool)


def _content_digest(value: Any) -> str:
    """Content hash of a plain dense/sparse matrix, for pinned constants."""
    digest = hashlib.sha1()
    if is_sparse(value):
        csr = value.tocsr()
        digest.update(repr(("csr", csr.shape)).encode())
        for part in (csr.data, csr.indices, csr.indptr):
            digest.update(np.ascontiguousarray(part).tobytes())
    else:
        arr = np.asarray(value)
        digest.update(repr((arr.shape, str(arr.dtype))).encode())
        digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()


def _fn_token(fn: Callable) -> Optional[str]:
    """Identity token for an element-wise function, or ``None`` if unsafe to cache.

    Tokens are pinned on the function object itself so two distinct functions
    never share a key (same-named lambdas included).  Objects that reject
    attributes (NumPy ufuncs, builtins) fall back to their stable qualified
    name; an unnamed callable we cannot pin gets no token, and the resulting
    node is excluded from memoization rather than risking a collision.
    """
    token = getattr(fn, "__lazy_fn_token__", None)
    if token is not None:
        return token
    try:
        fn.__lazy_fn_token__ = token = f"fn-{next(_token_counter)}"
    except (AttributeError, TypeError):
        # Bound methods of two different instances share module+name, so a
        # name key would collide across instances; refuse to memoize those.
        bound_to = getattr(fn, "__self__", None)
        if bound_to is not None and not isinstance(bound_to, types.ModuleType):
            return None
        name = getattr(fn, "__name__", None)
        if name:
            return f"{getattr(fn, '__module__', '')}.{name}"
        return None
    return token


class LazyExpr:
    """One node of a lazy LA expression DAG.

    Instances are built through the operator overloads / methods below, never
    mutated, and evaluated with :meth:`evaluate`.  Shapes are propagated at
    construction time so malformed expressions fail fast with
    :class:`~repro.exceptions.ShapeError`, before any computation runs.
    """

    # Defer NumPy binary ops to this class (above NormalizedMatrix's 1000 so
    # mixed expressions stay lazy).
    __array_ufunc__ = None
    __array_priority__ = 2000

    def __init__(self, op: str, children: Sequence["LazyExpr"], params: Tuple = (),
                 shape: Optional[Tuple[int, ...]] = None, fn: Optional[Callable] = None):
        self.op = op
        self.children = tuple(children)
        self.params = tuple(params)
        self.fn = fn
        self._shape = shape
        self.invariant = all(child.invariant for child in self.children)
        self._key: Optional[Tuple] = None

    # -- structural hash -----------------------------------------------------

    @property
    def key(self) -> Tuple:
        """Structural hash of the subtree (operator, params, child keys)."""
        if self._key is None:
            self._key = (self.op, self.params, tuple(c.key for c in self.children))
        return self._key

    # -- shape ----------------------------------------------------------------

    @property
    def shape(self) -> Tuple[int, ...]:
        return self._shape

    @property
    def ndim(self) -> int:
        return len(self._shape)

    # -- graph construction: transpose and products ---------------------------

    @property
    def T(self) -> "LazyExpr":
        return LazyExpr("transpose", (self,), shape=(self.shape[1], self.shape[0]))

    def transpose(self) -> "LazyExpr":
        return self.T

    def __matmul__(self, other) -> "LazyExpr":
        other = as_operand(other)
        if other is NotImplemented:
            return NotImplemented
        if self.shape[1] != other.shape[0]:
            raise ShapeError(
                f"lazy matmul: inner dimensions do not agree {self.shape} @ {other.shape}"
            )
        return LazyExpr("matmul", (self, other), shape=(self.shape[0], other.shape[1]))

    def __rmatmul__(self, other) -> "LazyExpr":
        other = as_operand(other)
        if other is NotImplemented:
            return NotImplemented
        return other.__matmul__(self)

    def dot(self, other) -> "LazyExpr":
        return self.__matmul__(other)

    def crossprod(self, method: Optional[str] = None) -> "LazyExpr":
        """Lazy ``crossprod(T) = T^T T`` (uses the operand's rewrite when evaluated)."""
        d = self.shape[1]
        return LazyExpr("crossprod", (self,), params=(method,), shape=(d, d))

    def gram(self) -> "LazyExpr":
        return self.crossprod()

    def ginv(self) -> "LazyExpr":
        return LazyExpr("ginv", (self,), shape=(self.shape[1], self.shape[0]))

    # -- graph construction: aggregations --------------------------------------

    def rowsums(self) -> "LazyExpr":
        return LazyExpr("rowsums", (self,), shape=(self.shape[0], 1))

    def colsums(self) -> "LazyExpr":
        return LazyExpr("colsums", (self,), shape=(1, self.shape[1]))

    def total_sum(self) -> "LazyExpr":
        return LazyExpr("total_sum", (self,), shape=())

    def sum(self, axis: Optional[int] = None) -> "LazyExpr":
        if axis is None:
            return self.total_sum()
        if axis == 0:
            return self.colsums()
        if axis == 1:
            return self.rowsums()
        raise ValueError("axis must be None, 0 or 1")

    # -- graph construction: element-wise operators -----------------------------

    def _scalar_node(self, op: str, scalar: Scalar, reverse: bool) -> "LazyExpr":
        return LazyExpr("scalar", (self,), params=(op, float(scalar), reverse),
                        shape=self.shape)

    def _elemwise_node(self, op: str, other, reverse: bool) -> "LazyExpr":
        other = as_operand(other)
        if other is NotImplemented:
            return NotImplemented
        if self.shape != other.shape:
            raise ShapeError(
                f"lazy element-wise op: shape mismatch {self.shape} vs {other.shape}"
            )
        left, right = (other, self) if reverse else (self, other)
        return LazyExpr("elemwise", (left, right), params=(op,), shape=self.shape)

    def _binary(self, op: str, other, reverse: bool):
        if _is_scalar(other):
            return self._scalar_node(op, other, reverse)
        if isinstance(other, LazyExpr) or is_matrix_like(other):
            return self._elemwise_node(op, other, reverse)
        return NotImplemented

    def __mul__(self, other):
        return self._binary("*", other, reverse=False)

    def __rmul__(self, other):
        return self._binary("*", other, reverse=True)

    def __add__(self, other):
        return self._binary("+", other, reverse=False)

    def __radd__(self, other):
        return self._binary("+", other, reverse=True)

    def __sub__(self, other):
        return self._binary("-", other, reverse=False)

    def __rsub__(self, other):
        return self._binary("-", other, reverse=True)

    def __truediv__(self, other):
        return self._binary("/", other, reverse=False)

    def __rtruediv__(self, other):
        return self._binary("/", other, reverse=True)

    def __pow__(self, exponent):
        if _is_scalar(exponent):
            return self._scalar_node("**", exponent, reverse=False)
        return NotImplemented

    def __neg__(self):
        return self._scalar_node("*", -1.0, reverse=False)

    def apply(self, fn: Callable[[np.ndarray], np.ndarray]) -> "LazyExpr":
        """Lazy element-wise scalar function ``f(T)`` (e.g. ``np.exp``)."""
        token = _fn_token(fn)
        node = LazyExpr("apply", (self,),
                        params=(token if token is not None else f"anon-{next(_token_counter)}",),
                        shape=self.shape, fn=fn)
        if token is None:
            node.invariant = False  # unidentifiable callable: never memoize
        return node

    def exp(self) -> "LazyExpr":
        return self.apply(np.exp)

    def log(self) -> "LazyExpr":
        return self.apply(np.log)

    def sqrt(self) -> "LazyExpr":
        return self.apply(np.sqrt)

    # -- evaluation -------------------------------------------------------------

    def evaluate(self, cache=None):
        """Evaluate the graph; see :func:`repro.core.lazy.evaluator.evaluate`."""
        from repro.core.lazy.evaluator import evaluate

        return evaluate(self, cache=cache)

    # -- introspection -----------------------------------------------------------

    def leaves(self):
        """Yield every leaf of the subtree (pre-order, with repeats for DAGs)."""
        if isinstance(self, LeafExpr):
            yield self
            return
        for child in self.children:
            yield from child.leaves()

    def num_nodes(self) -> int:
        """Number of nodes in the tree view of the DAG (debugging/tests)."""
        return 1 + sum(child.num_nodes() for child in self.children)

    def describe(self, indent: int = 0) -> str:
        """Multi-line tree rendering of the expression (debugging aid)."""
        pad = "  " * indent
        params = f" params={self.params}" if self.params else ""
        marker = "inv" if self.invariant else "var"
        lines = [f"{pad}{self.op}[{marker}] shape={self.shape}{params}"]
        for child in self.children:
            lines.append(child.describe(indent + 1))
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LazyExpr(op={self.op!r}, shape={self.shape}, "
            f"invariant={self.invariant}, nodes={self.num_nodes()})"
        )


class LeafExpr(LazyExpr):
    """A leaf wrapping a concrete operand: normalized, plain, or chunked matrix.

    Parameters
    ----------
    value:
        The wrapped operand.  Evaluation returns it as-is; all factorized
        execution happens in the operator nodes above it.
    invariant:
        Whether the operand is immutable for the lifetime of the cache.  Only
        expressions built exclusively from invariant leaves are memoized.
    cache:
        The :class:`~repro.core.lazy.cache.FactorizedCache` that memoized
        results should live in.  Usually attached by
        ``NormalizedMatrix.lazy()``; evaluation picks the first cache found in
        the expression tree.
    token:
        Override for the identity token (tests only).
    """

    def __init__(self, value: Any, invariant: bool, cache=None, token: Optional[str] = None):
        super().__init__("leaf", (), shape=tuple(value.shape))
        self.value = value
        self.cache = cache
        self.invariant = bool(invariant)
        if token is None:
            token = self._default_token(value, self.invariant)
        self.token = token
        self._key = ("leaf", type(value).__name__, token)

    @staticmethod
    def _default_token(value: Any, invariant: bool) -> str:
        if invariant and is_matrix_like(value):
            return _content_digest(value)
        if invariant:
            # Logical matrices (normalized/chunked) are hashed by identity; the
            # token is pinned on the object so repeated .lazy() calls agree.
            existing = getattr(value, "_lazy_token", None)
            if existing is not None:
                return existing
            token = f"obj-{next(_token_counter)}"
            try:
                value._lazy_token = token
            except AttributeError:  # pragma: no cover - exotic operand types
                token = f"id-{id(value)}"
            return token
        return f"var-{next(_token_counter)}"

    def describe(self, indent: int = 0) -> str:
        pad = "  " * indent
        marker = "inv" if self.invariant else "var"
        return f"{pad}leaf[{marker}] {type(self.value).__name__} shape={self.shape}"


def constant(value) -> LeafExpr:
    """Pin a plain matrix/vector as an *invariant* leaf, hashed by content.

    Use this for operands that do not change across iterations (e.g. the
    target vector ``Y`` of a GD loop) so that expressions involving them --
    ``T^T Y``, say -- become memoizable.  The content digest guarantees that
    two different constants never share a cache entry (which is why, unlike
    :class:`LeafExpr`, no token override is offered here).  A non-invariant
    leaf (from :func:`wrap`) is re-pinned as invariant, honouring this
    contract.
    """
    if isinstance(value, LeafExpr):
        if value.invariant:
            return value
        value = value.value
    return LeafExpr(_as_plain_2d(value), invariant=True)


def wrap(value) -> LeafExpr:
    """Wrap a mutable per-iteration operand as a *non-invariant* leaf."""
    return LeafExpr(_as_plain_2d(value), invariant=False)


def _as_plain_2d(value):
    """Coerce a plain operand to 2-D (columns for 1-D vectors, like the eager path)."""
    if not is_matrix_like(value):
        value = np.asarray(value, dtype=np.float64)
    return ensure_2d(value)


def as_operand(value):
    """Coerce an operator argument to a :class:`LazyExpr` (non-invariant default)."""
    if isinstance(value, LazyExpr):
        return value
    if is_matrix_like(value):
        return wrap(value)
    if hasattr(value, "shape") and hasattr(value, "__matmul__"):
        # Normalized / partitioned matrices entering someone else's graph.
        return LeafExpr(value, invariant=True)
    return NotImplemented


def as_lazy(data, cache=None) -> LazyExpr:
    """Entry point: the lazy view of a data matrix of any supported family.

    * Already-lazy expressions pass through.
    * Normalized and partitioned matrices delegate to their ``lazy()``
      method, which attaches the per-matrix
      :class:`~repro.core.lazy.cache.FactorizedCache`.
    * Plain dense/sparse matrices become invariant leaves (a data matrix is
      immutable by the same convention as the base matrices) with a fresh
      cache, so the lazy ML paths work on materialized inputs too.
    """
    from repro.core.lazy.cache import FactorizedCache

    if isinstance(data, LazyExpr):
        return data
    if hasattr(data, "lazy"):
        return data.lazy(cache=cache)
    data = _as_plain_2d(data)
    # NB: an empty FactorizedCache is falsy (it has __len__), so test identity.
    if cache is None:
        # Private fresh cache: nothing outside this leaf can ever share its
        # entries, so an identity token is equally correct and skips the
        # O(bytes) content digest over the whole data matrix.
        return LeafExpr(data, invariant=True, cache=FactorizedCache(),
                        token=f"mat-{next(_token_counter)}")
    return LeafExpr(data, invariant=True, cache=cache)


def lazy_view(matrix, cache=None) -> LeafExpr:
    """Shared implementation behind ``NormalizedMatrix.lazy()`` and friends.

    Attaches (and reuses) a per-matrix :class:`FactorizedCache` stored on the
    wrapped object, so repeated ``lazy()`` calls on the same matrix share
    memoized results.
    """
    from repro.core.lazy.cache import FactorizedCache

    if cache is None:
        cache = getattr(matrix, "_lazy_cache", None)
        if cache is None:
            cache = FactorizedCache()
    try:
        matrix._lazy_cache = cache
    except AttributeError:  # pragma: no cover - exotic operand types
        pass
    return LeafExpr(matrix, invariant=True, cache=cache)
