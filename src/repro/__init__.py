"""SALIENT reproduction: fast sampling and pipelining for GNN training.

Reproduces "Accelerating Training and Inference of Graph Neural Networks
with Fast Sampling and Pipelining" (MLSys 2022) from scratch on a
numpy-only substrate. See DESIGN.md for the system inventory and
EXPERIMENTS.md for paper-vs-measured results.

Subpackages
-----------
- ``repro.tensor``    numpy autograd engine (the PyTorch substitute)
- ``repro.nn``        module system, layers, optimizers
- ``repro.graph``     CSR graphs, generators
- ``repro.datasets``  synthetic OGB-like datasets
- ``repro.sampling``  MFGs + PyG/fast/design-space neighborhood samplers
- ``repro.slicing``   host feature store and batch slicing
- ``repro.runtime``   pinned buffers, device streams, staged pipeline + policy table
- ``repro.models``    GraphSAGE / GAT / GIN / GraphSAGE-RI
- ``repro.train``     trainer, sampled & layer-wise inference, DDP
- ``repro.perfmodel`` calibrated performance simulator (cluster-scale results)
- ``repro.telemetry`` tracer, metrics, run reports and table rendering
"""

__version__ = "0.1.0"

__all__ = [
    "tensor",
    "nn",
    "graph",
    "datasets",
    "sampling",
    "slicing",
    "runtime",
    "models",
    "train",
    "perfmodel",
    "telemetry",
]
