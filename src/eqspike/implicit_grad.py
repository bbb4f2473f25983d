"""Training through the equilibrium: exact gradients and the optimizer step.

Gradients never unroll the temporal simulation.  Block i of the stack
reads only block i-1, so the Jacobian of the rate map in the block state
is strictly lower triangular: one forward pass from the encoding through
the blocks lands on the fixed point a* = f(a*), and one backward pass
through that forward solves the implicit-function adjoint equation
v = dL/da* + (df/da)^T v exactly.

That backward is written out in closed form: the sweep keeps each
block's cache, the loss returns its gradient on each block output, and
the model's `backward` runs the blocks' backwards in reverse order,
adding every parameter gradient straight into a flat gradient buffer.
A training step stacks its batch and runs one forward and one backward
for all of it, so each linear is quantized once per step.  Loss builders
therefore see block outputs with a leading batch axis and return the
loss summed over the batch.  The full-precision teacher runs on the
same rate-path skeleton (`model` binds one `sweep` and one `backward` in
both classes), so its training shares `batch_gradients` with the
student's.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .data import stack_by_length
from .equilibrium import solve_fixed_point  # noqa: F401  (public re-export)
from .numerics import AdamState, FlatParams, adam_step_many


@dataclass
class GradientBundle:
    grads: dict  # name -> gradient, for every parameter of the step
    loss: float
    loss_terms: dict = field(default_factory=dict)
    # one gradient buffer per parameter owner, for Adam
    buffers: list = field(default_factory=list)


def ce_loss(tokens, label, a_blocks, head):
    """Cross-entropy on the classifier over the final block's CLS rate.

    The logits are one `linear` over the batch's CLS rows, and their
    gradient goes back through that linear's `linear_backward`.
    """
    final = a_blocks[-1]
    cls = final[..., 0, :]
    loss, g_logits = ad.cross_entropy(
        ad.linear(cls, head["cls.w"], head["cls.b"]), label)
    g_cls, g_w, g_b = ad.linear_backward(g_logits, cls, head["cls.w"])
    g_final = np.zeros_like(final)
    g_final[..., 0, :] = g_cls
    return (loss, {"ce": loss}, [None] * (len(a_blocks) - 1) + [g_final],
            {"cls.w": g_w, "cls.b": g_b})


def _owners(model, extra_params: FlatParams | None) -> list:
    """The parameter buffers a step trains: the model's, then any extras."""
    return [model.params] + ([extra_params] if extra_params else [])


def example_gradients(model, tokens, label, loss_builder,
                      extra_params: FlatParams | None,
                      buffers: list | None = None) -> GradientBundle:
    """Gradient of the loss on one example or a batch.

    `model` is the student `EncoderStack`, whose sweep lands on its
    equilibrium, or a `TeacherModel`.  `tokens` is (seq,) with an int
    `label`, or a stacked batch (B, seq) with labels (B,); gradients, loss
    and terms are then sums over the batch.  Runs the sweep with its caches
    (it raises NumericError on a non-finite block output), the loss and
    the model's backward.

    `loss_builder(tokens, label, a_blocks, head)` sees the block outputs,
    (seq, d) or (B, seq, d), and `head`: the classifier's "cls.w" and
    "cls.b" and the `extra_params`.  It returns the loss, a dict of float
    terms, its gradient on each block output (None where it does not read
    one) and a dict of gradients of the `head` entries it reaches.

    The gradients are added into `buffers`, one `FlatParams.zeros` per
    owner (the model's, then `extra_params`'), or into new ones if None;
    each parameter takes one add, except a `head` entry the loss does not
    reach, which takes none (the classifier's under the KD loss).  `grads`
    holds the buffers' entries.
    """
    if buffers is None:
        buffers = [p.zeros() for p in _owners(model, extra_params)]
    caches = []
    a_blocks = model.sweep(tokens, caches=caches)
    head = {"cls.w": model.params["cls.w"], "cls.b": model.params["cls.b"],
            **(extra_params or {})}
    loss, terms, g_blocks, g_head = loss_builder(tokens, label, a_blocks, head)
    model.backward(caches, g_blocks, buffers[0])
    for buf in buffers:
        for name in g_head.keys() & buf.keys():
            buf[name] += g_head[name]
    return GradientBundle(grads={k: g for buf in buffers for k, g in buf.items()},
                          loss=loss, loss_terms=terms, buffers=buffers)


def batch_gradients(model, batch, loss_builder=ce_loss,
                    extra_params: FlatParams | None = None) -> GradientBundle:
    """Gradients, loss and terms of a batch of (tokens, label) pairs.

    The batch is stacked by sequence length (`data.stack_by_length`; an
    encoded corpus is one group), and each group costs one forward and one
    backward (`example_gradients`), adding into one set of gradient
    buffers, in group order.  Each buffer is then divided once by the
    batch size.  `grads` holds every buffer's entries.
    """
    buffers = [p.zeros() for p in _owners(model, extra_params)]
    loss_sum, term_sum = 0.0, {}
    for tokens, labels in stack_by_length(batch):
        bundle = example_gradients(model, tokens, labels, loss_builder,
                                   extra_params, buffers)
        loss_sum += bundle.loss
        for k, val in bundle.loss_terms.items():
            term_sum[k] = term_sum.get(k, 0.0) + val
    n = len(batch)
    for buf in buffers:
        buf.flat /= n
    return GradientBundle(grads={k: g for buf in buffers for k, g in buf.items()},
                          loss=loss_sum / n,
                          loss_terms={k: v / n for k, v in term_sum.items()},
                          buffers=buffers)


def training_step(stack, batch, optimizer: AdamState, loss_builder=ce_loss,
                  extra_params: FlatParams | None = None) -> GradientBundle:
    """One Adam step of the student over a batch of (tokens, label) pairs.

    `batch_gradients`, then one `adam_step_many` over the stack's buffer
    and that of `extra_params`, which checks every gradient finite before
    it writes any parameter or optimizer state.
    """
    bundle = batch_gradients(stack, batch, loss_builder, extra_params)
    adam_step_many(_owners(stack, extra_params), bundle.buffers, optimizer)
    return bundle
