"""Neural-network module system, leaf layers and optimizers."""

from .layers import BatchNorm1d, Dropout, LeakyReLU, Linear, ReLU
from .module import Identity, Module, ModuleList, Parameter, Sequential
from .optim import Adam, Optimizer

__all__ = [
    "Module",
    "ModuleList",
    "Sequential",
    "Identity",
    "Parameter",
    "Linear",
    "BatchNorm1d",
    "ReLU",
    "LeakyReLU",
    "Dropout",
    "Optimizer",
    "Adam",
]
