"""Training through the equilibrium: exact gradients and the optimizer step.

Gradients never unroll the temporal simulation.  Block i of the stack
reads only block i-1, so the Jacobian of the rate map in the block state
is strictly lower triangular: one forward pass from the encoding through
the blocks lands on the fixed point a* = f(a*), and one backward pass
over that forward's tape solves the implicit-function adjoint equation
v = dL/da* + (df/da)^T v exactly.  A dense linear solve of the same
equation is kept as a test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .equilibrium import solve_fixed_point  # noqa: F401  (public re-export)
from .numerics import AdamState, adam_step_many, check_finite


@dataclass
class GradientBundle:
    grads: dict
    loss: float
    loss_terms: dict = field(default_factory=dict)


def dense_adjoint_solve(g: list, jacobian_vjp) -> list:
    """Test oracle: assemble (I - J^T) column by column and solve densely."""
    shapes = [x.shape for x in g]
    sizes = [int(np.prod(s)) for s in shapes]
    n = sum(sizes)
    jt = np.zeros((n, n))
    for col in range(n):
        basis = np.zeros(n)
        basis[col] = 1.0
        parts, off = [], 0
        for s, sz in zip(shapes, sizes):
            parts.append(basis[off:off + sz].reshape(s))
            off += sz
        jv = jacobian_vjp(parts)
        jt[:, col] = np.concatenate([x.reshape(-1) for x in jv])
    rhs = np.concatenate([x.reshape(-1) for x in g])
    sol = np.linalg.solve(np.eye(n) - jt, rhs)
    out, off = [], 0
    for s, sz in zip(shapes, sizes):
        out.append(sol[off:off + sz].reshape(s))
        off += sz
    return out


def mse(pred: Tensor, target) -> Tensor:
    diff = ad.sub(pred, np.asarray(target, dtype=np.float64))
    return ad.mean(ad.mul(diff, diff))


def ce_loss_builder(stack):
    """Cross-entropy on the classifier over the final block's CLS rate."""

    def build(tokens, label, a_blocks, head_leaves):
        logits = head_leaves["cls.w"] @ ad.getitem(a_blocks[-1], 0) \
            + head_leaves["cls.b"]
        loss = ad.cross_entropy(logits, label)
        return loss, {"ce": float(loss.data)}

    return build


def example_gradients(stack, tokens, label, loss_builder,
                      extra_params: dict) -> GradientBundle:
    """Gradient of the loss at one example's equilibrium.

    Tapes one forward from the encoding through every block (the first
    Gauss-Seidel sweep, already exact) and runs one backward from the loss.
    `loss_builder(tokens, label, a_blocks, head_leaves)` sees the block
    outputs and the classifier and `extra_params` leaves.
    """
    leaves = stack.param_tensors()
    a = stack.encoding(tokens, leaves)
    a_blocks = []
    for i in range(stack.cfg.num_layers):
        a = stack.block_forward(i, a, leaves)
        a_blocks.append(a)
    extra = {name: Tensor(arr, requires_grad=True)
             for name, arr in extra_params.items()}
    head_leaves = {"cls.w": leaves["cls.w"], "cls.b": leaves["cls.b"], **extra}
    loss, terms = loss_builder(tokens, label, a_blocks, head_leaves)
    ad.backward([loss], [1.0])
    grads = {name: leaf.grad for name, leaf in {**leaves, **extra}.items()
             if leaf.grad is not None}
    for grad in grads.values():
        check_finite(grad, "gradient")
    return GradientBundle(grads=grads, loss=float(loss.data), loss_terms=terms)


def training_step(stack, batch, optimizer: AdamState, loss_builder=None,
                  extra_params: dict | None = None,
                  apply_update: bool = True) -> GradientBundle:
    """One optimizer step over a batch of (tokens, label) pairs.

    Each example costs one taped forward and one backward
    (`example_gradients`), which checks every gradient is finite, so a
    non-finite gradient aborts the step before any parameter is touched.
    """
    loss_builder = loss_builder or ce_loss_builder(stack)
    extra_params = extra_params or {}
    params = stack.named_params()

    grad_sum: dict = {}
    loss_sum = 0.0
    term_sum: dict = {}
    for tokens, label in batch:
        bundle = example_gradients(stack, tokens, label, loss_builder,
                                   extra_params)
        loss_sum += bundle.loss
        for k, val in bundle.loss_terms.items():
            term_sum[k] = term_sum.get(k, 0.0) + val
        for k, grad in bundle.grads.items():
            grad_sum[k] = grad_sum.get(k, 0.0) + grad
    n = len(batch)
    avg = {k: g / n for k, g in grad_sum.items()}
    if apply_update:
        merged = dict(params)
        merged.update(extra_params)
        adam_step_many(merged, avg, optimizer)
    return GradientBundle(grads=avg, loss=loss_sum / n,
                          loss_terms={k: v / n for k, v in term_sum.items()})
