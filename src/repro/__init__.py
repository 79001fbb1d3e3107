"""VRDAG reproduction: Efficient Dynamic Attributed Graph Generation.

Full from-scratch Python implementation of the ICDE 2025 paper,
including the numpy autodiff/NN substrate, the VRDAG model, six
baseline generators, the metric suite and the evaluation harness.

Quickstart
----------
>>> from repro import datasets, core
>>> graph = datasets.load_dataset("email", scale=0.03, seed=0)
>>> cfg = core.VRDAGConfig(num_nodes=graph.num_nodes,
...                        num_attributes=graph.num_attributes)
>>> model = core.VRDAG(cfg)
>>> core.VRDAGTrainer(model).fit(graph)
>>> synthetic = model.generate(num_timesteps=graph.num_timesteps)
"""

__version__ = "1.0.0"

from repro import autodiff, nn, graph, datasets, workloads

__all__ = [
    "api",
    "autodiff",
    "nn",
    "graph",
    "datasets",
    "generation",
    "metrics",
    "workloads",
    "__version__",
]

#: submodules that import repro.core (the model) or scipy.stats (the
#: metrics); keeping them lazy avoids paying those imports for
#: graph-only and serving-only users
_LAZY_SUBMODULES = ("api", "generation", "metrics")


def __getattr__(name):
    if name in _LAZY_SUBMODULES:
        import importlib

        return importlib.import_module(f"repro.{name}")
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
