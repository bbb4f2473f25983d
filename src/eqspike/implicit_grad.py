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
The full-precision teacher has the same `param_tensors`/`sweep` contract,
so its training shares `batch_gradients` with the student's.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import stack_by_length
from .equilibrium import solve_fixed_point  # noqa: F401  (public re-export)
from .model import classifier_logits
from .numerics import AdamState, FlatParams, adam_step_many, flat_params


@dataclass
class GradientBundle:
    grads: dict  # name -> gradient, for each parameter the loss reached
    loss: float
    loss_terms: dict = field(default_factory=dict)
    # batch_gradients: one gradient buffer per parameter owner, for Adam
    buffers: list = field(default_factory=list)


def mse(pred: Tensor, target) -> Tensor:
    """Mean squared error per example, summed over the batch.

    The last two axes (seq, d) hold one example and any axis before them
    is a batch axis; a 1-D or 2-D input is a single example.
    """
    diff = ad.sub(pred, np.asarray(target, dtype=np.float64))
    per_example = int(np.prod(diff.data.shape[-2:]))
    return ad.tensor_sum(ad.mul(diff, diff)) * (1.0 / per_example)


def ce_loss(tokens, label, a_blocks, head_leaves):
    """Cross-entropy on the classifier over the final block's CLS rate."""
    loss = ad.cross_entropy(classifier_logits(a_blocks[-1], head_leaves), label)
    return loss, {"ce": float(loss.data)}


def example_gradients(model, tokens, label, loss_builder,
                      extra_params: dict) -> GradientBundle:
    """Gradient of the loss on one example or a batch.

    `model` is the student `EncoderStack`, whose sweep lands on its
    equilibrium, or a `TeacherModel`; both have `param_tensors()` and
    `sweep(tokens, leaves)`.  `tokens` is (seq,) with
    an int `label`, or a stacked batch (B, seq) with labels (B,);
    gradients, loss and terms are then sums over the batch.  Tapes the
    sweep (a student's raises NumericError on a non-finite rate) and runs
    one backward from the loss.  `loss_builder(tokens, label, a_blocks,
    head_leaves)` sees the block outputs, (seq, d) or (B, seq, d), and the
    classifier and `extra_params` leaves, and returns (loss Tensor, dict
    of floats).
    """
    leaves = model.param_tensors()
    a_blocks = model.sweep(tokens, leaves)
    extra = {name: Tensor(arr, requires_grad=True)
             for name, arr in extra_params.items()}
    head_leaves = {"cls.w": leaves["cls.w"], "cls.b": leaves["cls.b"], **extra}
    loss, terms = loss_builder(tokens, label, a_blocks, head_leaves)
    ad.backward([loss], [1.0])
    grads = {name: leaf.grad for name, leaf in {**leaves, **extra}.items()
             if leaf.grad is not None}
    return GradientBundle(grads=grads, loss=float(loss.data), loss_terms=terms)


def _owners(model, extra_params: FlatParams) -> list:
    """The parameter buffers a step trains: the model's, then any extras."""
    return [model.params] + ([extra_params] if extra_params else [])


def batch_gradients(model, batch, loss_builder=ce_loss,
                    extra_params: dict | None = None) -> GradientBundle:
    """Gradients, loss and terms of a batch of (tokens, label) pairs.

    The batch is stacked by sequence length (`data.stack_by_length`; an
    encoded corpus is one group), and each group costs one taped forward
    and one backward (`example_gradients`).  The groups' leaf gradients are
    added into one zero buffer per parameter owner (`FlatParams.zeros`: the
    model's, then `extra_params`'), in group order, and each buffer is
    divided once by the batch size; a buffer then drops the entries the
    loss did not reach.  `grads` holds every buffer's entries.
    """
    extra_params = flat_params(extra_params or {})
    buffers = [p.zeros() for p in _owners(model, extra_params)]
    sums = {name: g for buf in buffers for name, g in buf.items()}
    reached = set()
    loss_sum = 0.0
    term_sum: dict = {}
    for tokens, labels in stack_by_length(batch):
        bundle = example_gradients(model, tokens, labels, loss_builder,
                                   extra_params)
        loss_sum += bundle.loss
        for k, val in bundle.loss_terms.items():
            term_sum[k] = term_sum.get(k, 0.0) + val
        for k, grad in bundle.grads.items():
            sums[k] += grad
        reached.update(bundle.grads)
    n = len(batch)
    for buf in buffers:
        buf.flat /= n
        for name in [k for k in buf if k not in reached]:
            del buf[name]
    return GradientBundle(grads={k: g for buf in buffers for k, g in buf.items()},
                          loss=loss_sum / n,
                          loss_terms={k: v / n for k, v in term_sum.items()},
                          buffers=buffers)


def training_step(stack, batch, optimizer: AdamState, loss_builder=ce_loss,
                  extra_params: dict | None = None) -> GradientBundle:
    """One Adam step of the student over a batch of (tokens, label) pairs.

    `batch_gradients`, then one `adam_step_many` over the stack's buffer
    and that of `extra_params`, which checks every gradient finite before
    it writes any parameter or optimizer state.  A plain dict of
    `extra_params` is stepped as a FlatParams copy and written back.
    """
    extra_params = extra_params or {}
    extra = flat_params(extra_params)
    bundle = batch_gradients(stack, batch, loss_builder, extra)
    adam_step_many(_owners(stack, extra), bundle.buffers, optimizer)
    if extra is not extra_params:
        for name, arr in extra_params.items():
            arr[...] = extra[name]
    return bundle
