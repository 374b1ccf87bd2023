"""A minimal reverse-mode autograd engine over numpy arrays.

This is the compute substrate standing in for PyTorch: enough of a tape-based
autodiff to express a transformer LM with RMSNorm, SwiGLU, causal attention,
and the RLHF losses (PPO clip, value loss, KL penalties), all with exact
gradients.  It is deliberately small and explicit — no broadcasting tricks
beyond numpy's own, gradients accumulate into ``Tensor.grad``.

Shapes follow numpy broadcasting; ``_unbroadcast`` folds gradient axes back
to the parameter shape, so biases and scalars work naturally.

The model ops ``linear``, ``silu``, ``softmax``, ``embedding`` and ``mean``
form a *dual* op set (HIPS autograd's idiom: numpy code stays numpy, only
boxed values are traced).  Each takes a ``Tensor`` or a plain ndarray.  A
``Tensor`` runs the autograd op; an ndarray runs the same numpy formula and
comes back an ndarray, with no ``Tensor`` and no backward closure (only
``linear`` regroups work: it folds a decode step's rows into one GEMM).  A
forward written over these ops and ndarray-native ``+ * @ reshape
transpose swapaxes`` is one function that runs on the tape or tape-free,
depending only on what its caller passes in.
"""

from __future__ import annotations

import contextlib
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

ArrayLike = Union[np.ndarray, float, int, "Tensor"]

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Disable graph construction (generation / inference passes)."""
    # the grad-mode flag is interpreter-global by design, like
    # torch.no_grad; restored in the finally below so it cannot leak
    global _GRAD_ENABLED  # repro-lint: ignore[RL305]
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def is_grad_enabled() -> bool:
    """Whether ``Tensor`` ops record the tape (off under ``no_grad``)."""
    return _GRAD_ENABLED


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def _softmax(x: np.ndarray, axis: int) -> np.ndarray:
    shifted = x - x.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axis, keepdims=True)


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` over axes that were broadcast from ``shape``."""
    if grad.shape == shape:
        return grad
    # sum leading axes added by broadcasting
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # sum axes that were size-1 in the original
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy array node on the autodiff tape."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    # make ``ndarray <op> Tensor`` defer to the Tensor's reflected operator
    # instead of numpy broadcasting over the Tensor object
    __array_ufunc__ = None

    def __init__(
        self,
        data: ArrayLike,
        requires_grad: bool = False,
        name: str = "",
    ) -> None:
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad and _GRAD_ENABLED
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: Tuple["Tensor", ...] = ()
        self.name = name

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def _wrap(x: ArrayLike) -> "Tensor":
        return x if isinstance(x, Tensor) else Tensor(x)

    @classmethod
    def _from_op(
        cls,
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        out = cls(data)
        if _GRAD_ENABLED and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        return out

    # -- basic properties -----------------------------------------------------

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy())

    def zero_grad(self) -> None:
        self.grad = None

    def _accumulate(self, grad: np.ndarray) -> None:
        grad = _unbroadcast(np.asarray(grad, dtype=np.float64), self.data.shape)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad = self.grad + grad

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: ArrayLike) -> "Tensor":
        other = self._wrap(other)
        out_data = self.data + other.data

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g)
            if other.requires_grad:
                other._accumulate(g)

        return Tensor._from_op(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(-g)

        return Tensor._from_op(-self.data, (self,), backward)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        return self + (-self._wrap(other))

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return self._wrap(other) + (-self)

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other = self._wrap(other)
        out_data = self.data * other.data

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g * other.data)
            if other.requires_grad:
                other._accumulate(g * self.data)

        return Tensor._from_op(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other = self._wrap(other)
        out_data = self.data / other.data

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g / other.data)
            if other.requires_grad:
                other._accumulate(-g * self.data / (other.data**2))

        return Tensor._from_op(out_data, (self, other), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return self._wrap(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        out_data = self.data**exponent

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g * exponent * self.data ** (exponent - 1))

        return Tensor._from_op(out_data, (self,), backward)

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        other = self._wrap(other)
        out_data = self.data @ other.data

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g @ np.swapaxes(other.data, -1, -2))
            if other.requires_grad:
                grad_w = np.swapaxes(self.data, -1, -2) @ g
                other._accumulate(grad_w)

        return Tensor._from_op(out_data, (self, other), backward)

    # -- elementwise nonlinearities --------------------------------------------

    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g * out_data)

        return Tensor._from_op(out_data, (self,), backward)

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g / self.data)

        return Tensor._from_op(out_data, (self,), backward)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g * (1.0 - out_data**2))

        return Tensor._from_op(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        out_data = _sigmoid(self.data)

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g * out_data * (1.0 - out_data))

        return Tensor._from_op(out_data, (self,), backward)

    def silu(self) -> "Tensor":
        """SiLU / swish, the Llama MLP activation: ``x * sigmoid(x)``."""
        sig = _sigmoid(self.data)
        out_data = self.data * sig

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g * (sig + self.data * sig * (1.0 - sig)))

        return Tensor._from_op(out_data, (self,), backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0
        out_data = self.data * mask

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g * mask)

        return Tensor._from_op(out_data, (self,), backward)

    def sqrt(self) -> "Tensor":
        return self**0.5

    def abs(self) -> "Tensor":
        sign = np.sign(self.data)
        out_data = np.abs(self.data)

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g * sign)

        return Tensor._from_op(out_data, (self,), backward)

    def clip(self, lo: float, hi: float) -> "Tensor":
        mask = (self.data >= lo) & (self.data <= hi)
        out_data = np.clip(self.data, lo, hi)

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g * mask)

        return Tensor._from_op(out_data, (self,), backward)

    def maximum(self, other: ArrayLike) -> "Tensor":
        other = self._wrap(other)
        take_self = self.data >= other.data
        out_data = np.maximum(self.data, other.data)

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(g * take_self)
            if other.requires_grad:
                other._accumulate(g * ~take_self)

        return Tensor._from_op(out_data, (self, other), backward)

    # -- reductions -------------------------------------------------------------

    def sum(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(g: np.ndarray) -> None:
            if not self.requires_grad:
                return
            grad = np.asarray(g, dtype=np.float64)
            if axis is not None and not keepdims:
                grad = np.expand_dims(grad, axis)
            self._accumulate(np.broadcast_to(grad, self.data.shape))

        return Tensor._from_op(out_data, (self,), backward)

    def mean(self, axis: Optional[int] = None, keepdims: bool = False) -> "Tensor":
        n = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    # -- shape ops ----------------------------------------------------------------

    def reshape(self, *shape: int) -> "Tensor":
        out_data = self.data.reshape(*shape)
        orig_shape = self.data.shape

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(
                    np.asarray(g, dtype=np.float64).reshape(orig_shape)
                )

        return Tensor._from_op(out_data, (self,), backward)

    def transpose(self, *axes: int) -> "Tensor":
        axes_t = tuple(axes) if axes else tuple(reversed(range(self.ndim)))
        out_data = self.data.transpose(axes_t)
        inverse = tuple(np.argsort(axes_t))

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(
                    np.asarray(g, dtype=np.float64).transpose(inverse)
                )

        return Tensor._from_op(out_data, (self,), backward)

    def swapaxes(self, a: int, b: int) -> "Tensor":
        out_data = np.swapaxes(self.data, a, b)

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(
                    np.swapaxes(np.asarray(g, dtype=np.float64), a, b)
                )

        return Tensor._from_op(out_data, (self,), backward)

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]

        def backward(g: np.ndarray) -> None:
            if self.requires_grad:
                full = np.zeros_like(self.data)
                np.add.at(full, index, g)
                self._accumulate(full)

        return Tensor._from_op(out_data, (self,), backward)

    # -- graph execution ------------------------------------------------------------

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Run reverse-mode accumulation from this node."""
        if not self.requires_grad:
            raise RuntimeError("called backward() on a tensor with no graph")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError(
                    f"backward() without a gradient needs a scalar, got shape "
                    f"{self.data.shape}"
                )
            grad = np.ones_like(self.data)

        # iterative topological sort to avoid recursion limits on deep graphs
        topo: List[Tensor] = []
        visited = set()
        stack: List[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}, grad={self.requires_grad}{tag})"


# -- free functions -------------------------------------------------------------


def concatenate(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Differentiable concatenation."""
    tensors = [Tensor._wrap(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g: np.ndarray) -> None:
        g = np.asarray(g, dtype=np.float64)
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                index = [slice(None)] * g.ndim
                index[axis] = slice(lo, hi)
                t._accumulate(g[tuple(index)])

    return Tensor._from_op(out_data, tuple(tensors), backward)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Differentiable stack along a new axis."""
    tensors = [Tensor._wrap(t) for t in tensors]
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def backward(g: np.ndarray) -> None:
        g = np.asarray(g, dtype=np.float64)
        for i, t in enumerate(tensors):
            if t.requires_grad:
                t._accumulate(np.take(g, i, axis=axis))

    return Tensor._from_op(out_data, tuple(tensors), backward)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically-stable log-softmax with exact gradient."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    logsum = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - logsum
    probs = np.exp(out_data)

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            g = np.asarray(g, dtype=np.float64)
            x._accumulate(g - probs * g.sum(axis=axis, keepdims=True))

    return Tensor._from_op(out_data, (x,), backward)


def gather_last(x: Tensor, index: np.ndarray) -> Tensor:
    """Gather along the last axis: ``out[..., ] = x[..., index[...]]``.

    ``index`` must have the shape of ``x`` minus the last axis; used to pick
    per-token log-probabilities from the vocabulary axis.
    """
    index = np.asarray(index, dtype=np.int64)
    expanded = np.expand_dims(index, -1)
    out_data = np.take_along_axis(x.data, expanded, axis=-1).squeeze(-1)

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            full = np.zeros_like(x.data)
            np.put_along_axis(full, expanded, np.expand_dims(g, -1), axis=-1)
            x._accumulate(full)

    return Tensor._from_op(out_data, (x,), backward)


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Differentiable select: gradient flows to the chosen branch."""
    condition = np.asarray(condition, dtype=bool)
    a = Tensor._wrap(a)
    b = Tensor._wrap(b)
    out_data = np.where(condition, a.data, b.data)

    def backward(g: np.ndarray) -> None:
        g = np.asarray(g, dtype=np.float64)
        if a.requires_grad:
            a._accumulate(np.where(condition, g, 0.0))
        if b.requires_grad:
            b._accumulate(np.where(condition, 0.0, g))

    return Tensor._from_op(out_data, (a, b), backward)


# -- the dual op set -------------------------------------------------------------
#
# Each op below takes a ``Tensor`` or an ndarray (see the module docstring).
# Both kinds run one shared numpy formula, so the two paths agree bit for
# bit; the one exception is ``linear``'s folded decode rows.

Operand = Union[np.ndarray, Tensor]


def getval(x: Operand) -> np.ndarray:
    """The array behind ``x``: a ``Tensor``'s data, or ``x`` itself."""
    return x.data if isinstance(x, Tensor) else x


#: Folded decode rows run as a GEMM padded to a multiple of this many rows.
#: A row's rounding depends on the kernel block it lands in: one row alone
#: goes to gemv, and short tail blocks of 2-3 rows round differently from
#: full 4-row blocks on some output widths.  Padded, every row runs in a
#: full block, so its result does not depend on how many rows share it.
ROW_BLOCK = 4


def linear(x: Operand, weight: Operand) -> Operand:
    """``x @ weight``, contracting the last axis of ``x``.

    A ``Tensor`` runs ``Tensor.__matmul__`` unchanged, and an ndarray of
    whole sequences runs the same numpy product, so the two paths agree bit
    for bit.  A stack of single rows (a decode step, ``(batch, 1,
    hidden)``), which numpy would run as one gemv per row, is folded into
    one 2-D GEMM over every row, padded to :data:`ROW_BLOCK` rows: a row
    decoded in a batch equals the same row decoded alone.
    """
    if isinstance(x, Tensor) or isinstance(weight, Tensor):
        return Tensor._wrap(x) @ weight
    if x.ndim < 3 or x.shape[-2] != 1:
        return x @ weight
    rows = x.reshape(-1, x.shape[-1])
    n_rows = rows.shape[0]
    pad = -n_rows % ROW_BLOCK
    if pad:
        rows = np.concatenate([rows, np.zeros((pad, rows.shape[1]), dtype=rows.dtype)])
    return (rows @ weight)[:n_rows].reshape(x.shape[:-1] + weight.shape[-1:])


def silu(x: Operand) -> Operand:
    """SiLU / swish, ``x * sigmoid(x)``."""
    if isinstance(x, Tensor):
        return x.silu()
    return x * _sigmoid(x)


def mean(x: Operand, axis: Optional[int] = None, keepdims: bool = False) -> Operand:
    """``Tensor.mean``'s formula, ``sum * (1 / n)``, for either operand.

    Not ``ndarray.mean``: it rounds differently (by 2.2e-16 at n=96), and
    both paths must call the same reduction.
    """
    if isinstance(x, Tensor):
        return x.mean(axis=axis, keepdims=keepdims)
    n = x.size if axis is None else x.shape[axis]
    return x.sum(axis=axis, keepdims=keepdims) * (1.0 / n)


def embedding(table: Operand, token_ids: np.ndarray) -> Operand:
    """Look up rows of ``table`` for integer ``token_ids``."""
    token_ids = np.asarray(token_ids, dtype=np.int64)
    if not isinstance(table, Tensor):
        return table[token_ids]
    out_data = table.data[token_ids]

    def backward(g: np.ndarray) -> None:
        if table.requires_grad:
            full = np.zeros_like(table.data)
            np.add.at(full, token_ids, g)
            table._accumulate(full)

    return Tensor._from_op(out_data, (table,), backward)


def softmax(x: Operand, axis: int = -1) -> Operand:
    """Numerically-stable softmax with exact gradient."""
    if not isinstance(x, Tensor):
        return _softmax(x, axis)
    out_data = _softmax(x.data, axis)

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            g = np.asarray(g, dtype=np.float64)
            dot = (g * out_data).sum(axis=axis, keepdims=True)
            x._accumulate(out_data * (g - dot))

    return Tensor._from_op(out_data, (x,), backward)
