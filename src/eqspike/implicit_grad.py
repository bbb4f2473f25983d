"""Training through the equilibrium: exact gradients and the optimizer step.

Gradients never unroll the temporal simulation.  Block i of the stack
reads only block i-1, so the Jacobian of the rate map in the block state
is strictly lower triangular: one forward pass from the encoding through
the blocks lands on the fixed point a* = f(a*), and one backward pass
over that forward's tape solves the implicit-function adjoint equation
v = dL/da* + (df/da)^T v exactly.

A training step stacks its batch and tapes that one forward and one
backward for all of it, so the parameter leaves are built and each linear
is quantized once per step.  Loss builders therefore see block outputs
with a leading batch axis and return the loss summed over the batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import stack_by_length
from .equilibrium import solve_fixed_point  # noqa: F401  (public re-export)
from .model import classifier_logits
from .numerics import AdamState, adam_step_many


@dataclass
class GradientBundle:
    grads: dict
    loss: float
    loss_terms: dict = field(default_factory=dict)


def mse(pred: Tensor, target) -> Tensor:
    """Mean squared error per example, summed over the batch.

    The last two axes (seq, d) hold one example and any axis before them
    is a batch axis; a 1-D or 2-D input is a single example.
    """
    diff = ad.sub(pred, np.asarray(target, dtype=np.float64))
    per_example = int(np.prod(diff.data.shape[-2:]))
    return ad.tensor_sum(ad.mul(diff, diff)) * (1.0 / per_example)


def ce_loss_builder(stack):
    """Cross-entropy on the classifier over the final block's CLS rate."""

    def build(tokens, label, a_blocks, head_leaves):
        logits = classifier_logits(a_blocks[-1], head_leaves)
        loss = ad.cross_entropy(logits, label)
        return loss, {"ce": float(loss.data)}

    return build


def example_gradients(stack, tokens, label, loss_builder,
                      extra_params: dict) -> GradientBundle:
    """Gradient of the loss at the equilibrium of one example or a batch.

    `tokens` is (seq,) with an int `label`, or a stacked batch (B, seq)
    with labels (B,); gradients, loss and terms are then sums over the
    batch.  Tapes `stack.sweep`, the forward of `solve_fixed_point` (exact),
    and runs one backward from the loss; a non-finite rate raises
    NumericError before the backward.  `loss_builder(tokens, label,
    a_blocks, head_leaves)` sees the block outputs, (seq, d) or
    (B, seq, d), and the classifier and `extra_params` leaves, and returns
    (loss Tensor, dict of floats).
    """
    leaves = stack.param_tensors()
    a_blocks = stack.sweep(tokens, leaves)
    extra = {name: Tensor(arr, requires_grad=True)
             for name, arr in extra_params.items()}
    head_leaves = {"cls.w": leaves["cls.w"], "cls.b": leaves["cls.b"], **extra}
    loss, terms = loss_builder(tokens, label, a_blocks, head_leaves)
    ad.backward([loss], [1.0])
    grads = {name: leaf.grad for name, leaf in {**leaves, **extra}.items()
             if leaf.grad is not None}
    return GradientBundle(grads=grads, loss=float(loss.data), loss_terms=terms)


def training_step(stack, batch, optimizer: AdamState, loss_builder=None,
                  extra_params: dict | None = None) -> GradientBundle:
    """One optimizer step over a batch of (tokens, label) pairs.

    The batch is stacked by sequence length (`data.stack_by_length`; an
    encoded corpus is one group), and each group costs one taped forward
    and one backward (`example_gradients`).  Gradients, loss and terms are
    averaged over the batch.  `adam_step_many` checks every gradient finite
    first, so a non-finite gradient aborts the step before any parameter or
    optimizer state is touched.
    """
    loss_builder = loss_builder or ce_loss_builder(stack)
    extra_params = extra_params or {}

    grad_sum: dict = {}
    loss_sum = 0.0
    term_sum: dict = {}
    for tokens, labels in stack_by_length(batch):
        bundle = example_gradients(stack, tokens, labels, loss_builder,
                                   extra_params)
        loss_sum += bundle.loss
        for k, val in bundle.loss_terms.items():
            term_sum[k] = term_sum.get(k, 0.0) + val
        for k, grad in bundle.grads.items():
            grad_sum[k] = grad_sum.get(k, 0.0) + grad
    n = len(batch)
    avg = {k: g / n for k, g in grad_sum.items()}
    adam_step_many({**stack.named_params(), **extra_params}, avg, optimizer)
    return GradientBundle(grads=avg, loss=loss_sum / n,
                          loss_terms={k: v / n for k, v in term_sum.items()})
