"""Deep-learning substrate: NumPy autodiff, layers, LSTM, Adam.

Replaces the paper's PyTorch training stack at laptop scale.  Everything
the CNN-LSTM prototype needs — reverse-mode autodiff (:mod:`tensor`),
conv/pool/LSTM/dropout/cross-entropy ops (:mod:`functional`), the module
system (:mod:`layers`), the LSTM layer (:mod:`recurrent`), whose whole
recurrence is one graph node, Adam (:mod:`optim`) and checkpointing
(:mod:`serialization`) — implemented from scratch.
"""

from . import functional
from .functional import (
    conv2d,
    cross_entropy,
    dropout,
    linear,
    log_softmax,
    max_pool2d,
    softmax,
)
from .init import kaiming_uniform, orthogonal, xavier_uniform
from .layers import (
    Conv2d,
    Dropout,
    Flatten,
    Linear,
    MaxPool2d,
    Module,
    ReLU,
    Sequential,
)
from .optim import Adam, clip_grad_norm
from .recurrent import LSTM, LSTMCell
from .serialization import load_checkpoint, save_checkpoint
from .tensor import Tensor

__all__ = [
    "Adam",
    "Conv2d",
    "Dropout",
    "Flatten",
    "LSTM",
    "LSTMCell",
    "Linear",
    "MaxPool2d",
    "Module",
    "ReLU",
    "Sequential",
    "Tensor",
    "clip_grad_norm",
    "conv2d",
    "cross_entropy",
    "dropout",
    "functional",
    "kaiming_uniform",
    "linear",
    "load_checkpoint",
    "log_softmax",
    "max_pool2d",
    "orthogonal",
    "save_checkpoint",
    "softmax",
    "xavier_uniform",
]
