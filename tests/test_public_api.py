"""Every exported name resolves: a stale ``__all__`` entry left behind by a
deletion fails here instead of at some user's import — and the deleted
second telemetry sink, compute-path selectors, worker-stage chain and stage
list stay out of every public signature. ``test_one_performance_estate``
keeps the legacy perf estate (root ``BENCH_*.json`` artifacts, the benches
that wrote them, the self-compare sentinel) from growing back beside
``benchmarks/e2e``; the one after it does the same for the "extensions
beyond the paper" periphery."""

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

import check_bench_json  # noqa: E402


@pytest.mark.parametrize(
    "package",
    [
        "repro.runtime",
        "repro.telemetry",
        "repro.train",
        "repro.sampling",
        "repro.graph",
        "repro.perfmodel",
    ],
)
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)


SINK_PACKAGES = [
    "repro.runtime",
    "repro.sampling",
    "repro.slicing",
    "repro.train",
    "repro.telemetry",
]


def _callables(obj):
    """``obj`` plus, for a class, its own public methods and ``__init__``."""
    yield obj
    if inspect.isclass(obj):
        for name, member in vars(obj).items():
            if callable(member) and (name == "__init__" or not name.startswith("_")):
                yield member


def _signatures(package):
    """``(label, parameters)`` of every public callable ``package`` exports."""
    module = importlib.import_module(package)
    for name in module.__all__:
        obj = getattr(module, name)
        if not callable(obj):
            continue
        for fn in _callables(obj):
            try:
                parameters = inspect.signature(fn).parameters
            except (TypeError, ValueError):  # builtins without a signature
                continue
            yield f"{name}: {getattr(fn, '__qualname__', fn)}", parameters


@pytest.mark.parametrize("package", SINK_PACKAGES)
def test_one_telemetry_sink_in_every_signature(package):
    """``MetricsRegistry`` is the only sink: no public callable takes a
    ``counters`` parameter and nothing grows an ``attach_counters`` back."""
    module = importlib.import_module(package)
    offenders = [
        f"{name}.attach_counters"
        for name in module.__all__
        if hasattr(getattr(module, name), "attach_counters")
    ]
    offenders += [
        label for label, parameters in _signatures(package) if "counters" in parameters
    ]
    assert offenders == []


def test_counters_class_is_gone():
    import repro.telemetry

    assert "Counters" not in repro.telemetry.__all__
    assert not hasattr(repro.telemetry, "Counters")


@pytest.mark.parametrize(
    "package", ["repro.runtime", "repro.train", "repro.models", "repro.tensor"]
)
def test_plans_are_not_a_callers_choice(package):
    """Every ``Adj`` that reaches a model has a plan: no public callable
    takes ``build_plans``."""
    offenders = [
        label
        for label, parameters in _signatures(package)
        if "build_plans" in parameters
    ]
    assert offenders == []


def test_compute_selectors_are_gone():
    import repro.tensor

    linear = repro.tensor.functional.linear
    assert "fused" not in inspect.signature(linear).parameters
    assert "is_fused_compute" not in repro.tensor.__all__
    assert not hasattr(repro.tensor, "is_fused_compute")


def test_the_buffer_pool_is_gone():
    """Kernels allocate with numpy and the allocator keeps freed memory:
    no pool, no checkout helpers, no pool counters.  ``Workspace`` and
    ``workspace_scope`` stay as empty stand-ins for ``benchmarks/e2e``."""
    import repro.tensor
    import repro.tensor.kernels
    import repro.tensor.tensor

    assert importlib.util.find_spec("repro.tensor.workspace") is None
    for module in (repro.tensor, repro.tensor.kernels, repro.tensor.tensor):
        for name in ("current_workspace", "_pool_empty", "_pool_zeros"):
            assert not hasattr(module, name), (module.__name__, name)
    assert "current_workspace" not in repro.tensor.__all__
    for name in ("stats", "release_all", "empty", "zeros", "pooled_bytes"):
        assert not hasattr(repro.tensor.Workspace, name), name
    sources = "".join(
        path.read_text() for path in (REPO_ROOT / "src" / "repro").rglob("*.py")
    )
    assert "workspace_hits" not in sources and "workspace_bytes" not in sources


def test_one_prepare_stage_and_one_worker_count():
    """A pipeline is one prepare stage: the split stages are not exported
    (the constructor takes the one stage by name, so a second cannot be
    expressed) and the one stage has one worker count (no
    ``prepare_workers`` beside ``num_workers``)."""
    import repro.runtime as runtime

    for name in ("SampleStage", "SliceStage"):
        assert name not in runtime.__all__
        assert not hasattr(runtime, name)
    offenders = [
        label
        for package in ("repro.runtime", "repro.train")
        for label, parameters in _signatures(package)
        if "prepare_workers" in parameters
    ]
    assert offenders == []


def test_the_pipeline_runs_on_the_standard_library_executors():
    """The overlapped run and the transfer stream are
    ``concurrent.futures`` executors: no hand-written queue, stream or
    event class is exported, and the queue module is gone."""
    import repro.runtime as runtime

    for name in ("Stream", "StreamEvent", "InputQueue", "BoundedOutputQueue",
                 "QueueClosed"):
        assert name not in runtime.__all__
        assert not hasattr(runtime, name)
    assert not (REPO_ROOT / "src" / "repro" / "runtime" / "queues.py").exists()


def test_one_dispatch_thread_drives_one_worker_process(tiny_dataset):
    """The process stage has no pool layer of its own: nothing exports a
    ``MultiprocessPreparePool``, and an open multiprocess pipeline runs no
    receiver thread and no ``multiprocessing.Queue`` feeder thread — each
    dispatch thread talks to its worker process over a pipe."""
    import threading

    import numpy as np

    import repro.runtime as runtime
    from repro.sampling import FastNeighborSampler
    from repro.slicing import FeatureStore

    assert "MultiprocessPreparePool" not in runtime.__all__
    assert not hasattr(runtime, "MultiprocessPreparePool")
    rng = np.random.default_rng(0)
    batches = [rng.choice(tiny_dataset.num_nodes, 16, replace=False) for _ in range(4)]
    threads = set()

    def compute_fn(batch):
        threads.update(thread.name for thread in threading.enumerate())
        return 0.0

    pipeline = runtime.build_pipeline(
        "multiprocess",
        lambda: FastNeighborSampler(tiny_dataset.graph, [5, 3]),
        FeatureStore(tiny_dataset.features, tiny_dataset.labels),
        num_workers=2,
        max_batch=16,
        start_method="fork",
    )
    try:
        pipeline.run_epoch(batches, compute_fn)
        threads.update(thread.name for thread in threading.enumerate())
    finally:
        pipeline.close()
    assert {"mp-prepare-recv", "QueueFeederThread"}.isdisjoint(threads)


def test_a_staging_slot_holds_rows_and_labels_only():
    """The MFG rides the worker's reply and no batch spills: no topology
    codec or slot subclass is exported, nothing sizes a slot by hand, the
    shared pool takes the pinned pool's parameters, and no overflow
    counter is left in ``src/``."""
    import repro.runtime as runtime

    for name in ("encode_mfg", "decode_mfg", "SharedPinnedBuffer"):
        assert name not in runtime.__all__
        assert not hasattr(runtime, name)
    assert "max_rows_hint" not in inspect.signature(runtime.build_pipeline).parameters
    assert list(inspect.signature(runtime.SharedSlotPool).parameters) == list(
        inspect.signature(runtime.PinnedBufferPool).parameters
    )
    offenders = [
        str(path.relative_to(REPO_ROOT))
        for path in sorted((REPO_ROOT / "src").rglob("*.py"))
        if "overflow_batches" in path.read_text()
    ]
    assert offenders == []


def test_a_pipeline_is_built_one_way_and_a_step_written_once():
    """``StagedPipeline(prepare, device=...)`` takes its parts by name — no
    stage list, no ``Stage`` / ``TransferStage`` / ``ComputeStage`` to put in
    one — and in ``src/`` only ``build_pipeline`` and layer-wise inference's
    ``_propagate_full`` construct one.  A run's seeding and compute name are
    set in its ``RunSpec`` alone, never on the pipeline.  The training step
    (the only ``.backward()`` call) is written in ``Trainer`` and
    ``DDPTrainer``: the paper-table scripts and examples run through them."""
    import repro.runtime as runtime

    for name in ("Stage", "TransferStage", "ComputeStage"):
        assert name not in runtime.__all__
        assert not hasattr(runtime, name)
    parameters = list(inspect.signature(runtime.StagedPipeline).parameters)
    assert parameters[0] == "prepare"
    assert {"stages", "pinned_pool"}.isdisjoint(parameters)
    assert inspect.signature(runtime.StagedPipeline.run_epoch).parameters[
        "compute_fn"
    ].default is inspect.Parameter.empty
    for built in (runtime.StagedPipeline, runtime.build_pipeline):
        assert {"rng_entries", "compute_name", "infer"}.isdisjoint(
            inspect.signature(built).parameters
        ), built

    def called(node, name):
        func = node.func if isinstance(node, ast.Call) else None
        return getattr(func, "id", getattr(func, "attr", None)) == name

    constructors, infer_specs = set(), set()
    for path in sorted((REPO_ROOT / "src").rglob("*.py")):
        tree = ast.parse(path.read_text())
        module = str(path.relative_to(REPO_ROOT))
        owner = {}  # node -> its innermost enclosing function (BFS: outer first)
        for function in ast.walk(tree):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(function):
                    owner[id(node)] = f"{module}::{function.name}"
        for node in ast.walk(tree):
            site = owner.get(id(node), module)
            if called(node, "StagedPipeline"):
                constructors.add(site)
            if called(node, "RunSpec") and any(
                keyword.arg == "compute_name"
                and getattr(keyword.value, "value", None) == "infer"
                for keyword in node.keywords
            ):
                infer_specs.add(site)
    propagate = "src/repro/train/inference.py::_propagate_full"
    assert constructors == {
        "src/repro/runtime/pipeline.py::build_pipeline",
        propagate,
    }
    assert propagate in infer_specs

    scripts = [
        *sorted((REPO_ROOT / "src" / "repro").rglob("*.py")),
        *sorted((REPO_ROOT / "benchmarks").glob("bench_*.py")),
        *sorted((REPO_ROOT / "examples").glob("*.py")),
    ]
    steps = {
        str(path.relative_to(REPO_ROOT))
        for path in scripts
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "backward"
    }
    assert steps == {"src/repro/train/loop.py", "src/repro/train/ddp.py"}


def test_one_performance_estate():
    """``benchmarks/e2e`` is the only perf measurement that commits numbers:
    no artifact at the root, no sentinel, no console script, one schema,
    and no paper-table script that writes a ``BENCH_`` file."""
    assert sorted(REPO_ROOT.glob("BENCH_*.json")) == []
    assert importlib.util.find_spec("repro.telemetry.sentinel") is None
    assert "[project.scripts]" not in (REPO_ROOT / "pyproject.toml").read_text()

    errors = check_bench_json.validate({"bench": "sampler_hotpath"})
    assert len(errors) == 1 and "'run_report' (the only schema)" in errors[0]

    offenders = [
        path.name
        for path in sorted((REPO_ROOT / "benchmarks").glob("bench_*.py"))
        if "BENCH_" in path.read_text()
    ]
    assert offenders == []


RETIRED_MODULES = [
    "repro.sampling.layerwise",
    "repro.sampling.lazy",
    "repro.sampling.subgraph",
    "repro.graph.partition",
    "repro.graph.distributed",
    "repro.perfmodel.sensitivity",
    "repro.train.fullbatch",
    "repro.runtime.feature_cache",
]

RETIRED_NAMES = {
    "FastGCNSampler",
    "LadiesSampler",
    "weighted_segment_mean",
    "LazySamplerSchedule",
    "CacheRestrictedSampler",
    "SampledSubgraph",
    "RandomNodeSubgraphSampler",
    "RandomWalkSubgraphSampler",
    "ClusterSubgraphSampler",
    "Partition",
    "bfs_partition",
    "random_partition",
    "edge_cut",
    "SamplingCommStats",
    "sampling_communication",
    "partition_quality_report",
    "FullBatchTrainer",
    "DeviceFeatureCache",
    "transfer_batch_with_cache",
    "stage_totals",
    "bottleneck",
    "sweep_cores",
    "sweep_feature_width",
    "sweep_fanout",
}


def test_no_periphery_beyond_the_paper():
    """Every module is reached by a paper table, a figure or an e2e
    workload (DESIGN.md §4b): the retired extension modules do not import,
    no package exports their names, node-wise sampling has its three
    samplers, and the one remaining ablation is §3's."""
    import repro
    import repro.sampling as sampling

    assert [m for m in RETIRED_MODULES if importlib.util.find_spec(m)] == []
    exported = {
        f"repro.{package}.{name}"
        for package in repro.__all__
        for name in importlib.import_module(f"repro.{package}").__all__
        if name in RETIRED_NAMES
    }
    assert exported == set()

    base = sampling.NeighborSamplerBase
    samplers = {
        name
        for name, obj in ((name, getattr(sampling, name)) for name in sampling.__all__)
        if inspect.isclass(obj) and issubclass(obj, base) and obj is not base
    }
    assert samplers == {
        "PyGNeighborSampler",
        "FastNeighborSampler",
        "ParameterizedSampler",
    }

    benches = sorted((REPO_ROOT / "benchmarks").glob("bench_*.py"))
    ablations = [path.name for path in benches if path.name.startswith("bench_ablation_")]
    assert ablations == ["bench_ablation_conventional_opts.py"]
    sources = "".join(path.read_text() for path in benches)
    orphans = [
        path.name
        for path in sorted((REPO_ROOT / "benchmarks" / "results").glob("*.txt"))
        if f'emit("{path.stem}"' not in sources
    ]
    assert orphans == []


def test_each_sampling_algorithm_is_written_once():
    """One production hop, one baseline, one reference kernel: the PyG
    sampler is the design space's baseline corner (no module of its own, no
    second copy of the dict / hash-set / staged hop), the fast sampler has
    one path (no pre-arena twin behind a flag), and the arena kernel is
    called from one function, which Figure 2's winning corner runs too."""
    import repro.sampling as sampling

    assert importlib.util.find_spec("repro.sampling.pyg_sampler") is None
    for name in ("sample_adj_reference", "full_fanouts", "expand_hop"):
        assert name not in sampling.__all__
        assert not hasattr(sampling, name)
    assert issubclass(sampling.PyGNeighborSampler, sampling.ParameterizedSampler)
    parameters = inspect.signature(sampling.FastNeighborSampler.__init__).parameters
    assert list(parameters) == ["self", "graph", "fanouts"]

    callers = set()
    for path in sorted((REPO_ROOT / "src" / "repro" / "sampling").glob("*.py")):
        for scope in ast.walk(ast.parse(path.read_text())):
            if not isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(scope):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "expand_frontier_arena"
                ):
                    callers.add(f"{path.name}::{scope.name}")
    assert callers == {"fast_sampler.py::_expand"}


def _calls_by_scope(node, scope="<module>"):
    """``(innermost class-or-function name, call)`` for every call under ``node``."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = child.name
        if isinstance(child, ast.Call):
            yield inner, child
        yield from _calls_by_scope(child, inner)


def _mentions_xs(node):
    return any(
        (isinstance(sub, ast.Name) and sub.id == "xs")
        or (isinstance(sub, ast.Attribute) and sub.attr == "xs")
        for sub in ast.walk(node)
    )


def _is_float32(node):
    return (isinstance(node, ast.Attribute) and node.attr == "float32") or (
        isinstance(node, ast.Constant) and node.value == "float32"
    )


def test_one_feature_decode_seam():
    """Sliced rows stay in their stored dtype until ``FeatureStore.decode``:
    no ``astype(np.float32)`` / ``dtype=np.float32`` conversion of a batch's
    ``xs`` anywhere in ``src/``, every float32 view of ``xs`` is a
    ``store.decode`` call at one of the four consumers, ``decode`` is
    written by the two stores only, and dequantizing is the quantized
    store's ``decode``."""
    casts, decodes, dequantizes, definers = set(), set(), set(), set()
    for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text())
        definers |= {
            f"{path.name}::{cls.name}"
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef)
            for item in cls.body
            if isinstance(item, ast.FunctionDef) and item.name == "decode"
        }
        for scope, call in _calls_by_scope(tree):
            site = f"{path.name}::{scope}"
            func = call.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
            converted = []
            if name == "astype" and call.args and _is_float32(call.args[0]):
                converted.append(func.value)
            if any(k.arg == "dtype" and _is_float32(k.value) for k in call.keywords):
                converted += call.args
            if any(_mentions_xs(node) for node in converted):
                casts.add(site)
            if name == "decode" and any(_mentions_xs(arg) for arg in call.args):
                decodes.add(site)
            if name == "dequantize_rows":
                dequantizes.add(site)
    assert casts == set()
    assert decodes == {
        "device.py::transfer_batch",
        "inference.py::infer_fn",
        "inference.py::layer_fn",
        "ddp.py::_replica_step",
    }
    assert dequantizes == {"memmap_store.py::decode"}
    assert definers == {"store.py::FeatureStore", "memmap_store.py::MemmapFeatureStore"}

    import repro.runtime as runtime
    import repro.slicing as slicing

    assert "feature_dtype" not in vars(slicing.MemmapFeatureStore)
    assert not hasattr(slicing.MemmapFeatureStore, "stored_row_bytes")
    assert not hasattr(runtime.Device, "to_device")


def test_one_cold_tier():
    """``feature_tier`` only says where feature bytes live: no RAM-hot tier
    in front of the slab, no per-kind store spec, and the slab store is a
    ``FeatureStore`` that inherits the slicing contract."""
    import repro.slicing as slicing

    for name in ("TieredFeatureStore", "hottest_nodes", "open_store_from_spec"):
        assert name not in slicing.__all__
        assert not hasattr(slicing, name)
    offenders = [
        label
        for package in ("repro.train", "repro.runtime", "repro.slicing")
        for label, parameters in _signatures(package)
        if "hot_rows" in parameters
    ]
    assert offenders == []
    assert issubclass(slicing.MemmapFeatureStore, slicing.FeatureStore)


def test_the_probe_sampler_reads_the_one_registry():
    """Monitoring is a reader of the metrics registry, not a second sink:
    no class defines ``register_probes``, the sampler takes no probe
    callables, no pipeline constructor takes a sampler, and the runtime
    never imports the monitor."""
    definers = set()
    monitor_importers = set()
    for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text())
        definers |= {
            f"{path.name}::{cls.name}"
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef)
            for item in cls.body
            if isinstance(item, ast.FunctionDef) and item.name == "register_probes"
        }
        if path.parent.name != "runtime":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names = [f"{node.module or ''}.{alias.name}" for alias in node.names]
                names.append(node.module or "")
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            if any("monitor" in name.split(".") for name in names):
                monitor_importers.add(path.name)
    assert definers == set()
    assert monitor_importers == set()

    from repro.runtime import StagedPipeline, build_pipeline
    from repro.telemetry import ProbeSampler

    assert not hasattr(ProbeSampler, "add_probe")
    for fn in (build_pipeline, StagedPipeline):
        assert "probes" not in inspect.signature(fn).parameters


def test_no_module_reads_the_environment():
    """The shell chooses no behaviour of the program: no module under
    ``repro`` reads ``os.environ`` or calls ``os.getenv`` (the compute
    sets the BLAS thread count it needs itself)."""
    readers = set()
    for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                names = [alias.name for alias in node.names]
            else:
                continue
            if {"environ", "getenv", "environb", "getenvb"} & set(names):
                readers.add(f"{path.relative_to(REPO_ROOT)}:{node.lineno}")
    assert readers == set()
