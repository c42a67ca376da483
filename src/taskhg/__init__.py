"""taskhg: multitask pretraining for recommendation on task hypergraphs.

Each exported name loads its module on first access (PEP 562), so
`import taskhg` loads no NumPy and the CLI can set the BLAS thread count
before NumPy starts.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

_EXPORTS = {
    "config": ("LossKind", "TAVariant", "TrainConfig"),
    "data": ("InteractionDataset", "generate_synthetic_dataset"),
    "errors": ("DataError", "DivergenceError", "TaskHGError"),
    "evaluate": ("EvalReport", "evaluate"),
    "hypergraph": ("build_hypergraph",),
    "io": ("load_checkpoint", "load_dataset", "save_checkpoint", "write_synthetic_dataset"),
    "model": ("EmbeddingTable", "init_embeddings"),
    "protocols": ("cold_start_eval", "run_ablation"),
    "tasks": ("NodeSide", "build_attribute_hypergraph", "build_relation_hypergraph"),
    "train": ("TrainResult", "finetune", "pretrain"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_MODULE_OF})


class _Package(types.ModuleType):
    def __setattr__(self, name, value):
        # Importing the `evaluate` submodule binds it on the package; the
        # exported name stays the function, as an eager root left it.
        if not (name in _MODULE_OF and isinstance(value, types.ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
