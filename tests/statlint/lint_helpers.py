"""The repository's determinism and consistency invariants as checks.

Eight are AST walks: a check takes a parsed :class:`Source` and yields
``(node, message)`` per violation; SNAP001 and EXP001 run the real
objects. DESIGN.md §6 maps each rule id to the test enforcing it.
"""

import ast
import functools
import textwrap
from collections import namedtuple
from fnmatch import fnmatch
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
#: Trees whose modules must satisfy every AST invariant.
SCANNED_DIRS = ("src", "benchmarks", "examples")

# Path scopes: fnmatch patterns over "/"-separated repo-relative paths.
WALLCLOCK_SHIM = ("*repro/core/walltime.py",)  # DET001: reads the host
OUTPUT_PATHS = ("*/analysis/*", "*/experiments/*", "*/faults/*",  # DET003
                "*serialize*", "*report*")
FAULT_PATHS = ("*/faults/*",)                  # ERR002
TELEMETRY_PATHS = ("*repro/telemetry/*",)      # TEL001
HOT_PATHS = ("*repro/core/*", "*repro/fuzzer/*")  # NUM101

#: Host-clock entry points. perf_counter/monotonic are listed too: all
#: host timing flows through the shim, so there is one place to audit.
WALL_CLOCK = frozenset(
    [f"time.{f}{ns}" for f in ("time", "monotonic", "perf_counter",
                               "process_time") for ns in ("", "_ns")] +
    ["datetime.datetime.now", "datetime.datetime.utcnow",
     "datetime.datetime.today", "datetime.date.today"])
#: numpy's module-level functions backed by its hidden global RandomState.
NP_LEGACY_RANDOM = frozenset(
    "rand randn randint random random_sample ranf sample choice bytes "
    "shuffle permutation seed normal uniform standard_normal exponential "
    "poisson binomial beta gamma".split())
SMALL_DTYPES = ("uint8", "uint16", "int8", "int16")
ARRAY_FACTORIES = frozenset("zeros full empty ones zeros_like full_like "
                            "empty_like ones_like array frombuffer asarray"
                            .split())

Violation = namedtuple("Violation", "rule path scope line message")


class Source:
    """One parsed module: its nodes, their enclosing ``Class.function``
    and an alias table (``import numpy as np``: ``np`` -> ``numpy``;
    ``from time import time as now``: ``now`` -> ``time.time``)."""

    def __init__(self, text, path="mod.py"):
        self.path = path
        self.scope = dict(_scoped(ast.parse(text), ""))
        self.aliases = {}
        for node in self.scope:
            if isinstance(node, ast.Import):  # `import a.b` binds `a`
                self.aliases.update((a.asname, a.name) if a.asname else
                                    (a.name.split(".")[0],) * 2
                                    for a in node.names)
            elif isinstance(node, ast.ImportFrom):
                module = "." * node.level + (node.module or "")
                self.aliases.update((a.asname or a.name, f"{module}.{a.name}")
                                    for a in node.names)

    def resolve(self, node):
        """Dotted name an expression was imported as ("" if never)."""
        parts = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name) or node.id not in self.aliases:
            return ""
        return ".".join([self.aliases[node.id], *reversed(parts)])

    def in_scope(self, patterns):
        return any(fnmatch(self.path, pattern) for pattern in patterns)

    @functools.cached_property
    def calls(self):
        return [(node, self.resolve(node.func)) for node in self.scope
                if isinstance(node, ast.Call)]

    def handlers(self):
        return [node for node in self.scope
                if isinstance(node, ast.ExceptHandler) and _broad(node)]

    def unordered_loops(self):
        """Loop/comprehension iterables that are sets or ``.keys()``."""
        for node in self.scope:
            for it in ([node.iter] if isinstance(node, ast.For) else
                       [g.iter for g in getattr(node, "generators", ())]):
                func = getattr(it, "func", None)
                if (isinstance(it, ast.Set) or
                        getattr(func, "id", None) in ("set", "frozenset") or
                        getattr(func, "attr", None) == "keys"):
                    yield it


def _scoped(node, scope):
    for child in ast.iter_child_nodes(node):
        yield child, scope
        named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.ClassDef))
        yield from _scoped(child, (f"{scope}.{child.name}".lstrip(".")
                                   if named else scope))


def _broad(handler):
    return handler.type is None or any(
        getattr(t, "id", None) in ("Exception", "BaseException")
        for t in getattr(handler.type, "elts", [handler.type]))


def _unseeded_random(call, full):
    """Why a call draws from an unseeded stream, or None."""
    if full.startswith("random.") and full.count(".") == 1:
        return f"stdlib {full}() uses the global random stream"
    if (full.startswith("numpy.random.") and
            full.rsplit(".", 1)[-1] in NP_LEGACY_RANDOM):
        return f"legacy {full}() draws from numpy's hidden global state"
    if full in ("numpy.random.default_rng", "numpy.random.RandomState"):
        seed = call.args[0] if call.args else next(
            (k.value for k in call.keywords if k.arg == "seed"), None)
        if seed is None or (isinstance(seed, ast.Constant) and
                            seed.value is None):
            return f"{full}() without a seed is entropy-seeded"
    return None


def det001(src):
    """No host-clock read outside the measurement shim."""
    if not src.in_scope(WALLCLOCK_SHIM):
        for call, full in src.calls:
            if full in WALL_CLOCK:
                yield call, f"wall-clock {full}(); use repro.core.walltime"


def det002(src):
    """All randomness comes from seeded np.random.Generator objects."""
    for call, full in src.calls:
        if _unseeded_random(call, full):
            yield call, _unseeded_random(call, full)


def det003(src):
    """Output paths iterate sorted(...), never a set or dict view."""
    if src.in_scope(OUTPUT_PATHS):
        for it in src.unordered_loops():
            yield it, "unordered iteration in an output path; sort it"


def tel001(src):
    """Telemetry: no host time (not even the shim), no unseeded
    randomness, canonical JSON, no unordered iteration at all."""
    if not src.in_scope(TELEMETRY_PATHS):
        return
    yield from det002(src)
    yield from ((it, "unordered iteration") for it in src.unordered_loops())
    for call, full in src.calls:
        if full in WALL_CLOCK or "walltime" in full.split("."):
            yield call, f"{full}(): telemetry time is the virtual clock"
        elif full in ("json.dump", "json.dumps") and not any(
                k.arg is None or k.arg == "sort_keys" and
                getattr(k.value, "value", None) is True
                for k in call.keywords):
            yield call, f"{full}() without sort_keys=True"


def err001(src):
    """A broad except re-raises or chains into a repro.core.errors class."""
    for handler in src.handlers():
        if not any(isinstance(n, ast.Raise) or str(
                getattr(n, "id", getattr(n, "attr", ""))).endswith("Error")
                for stmt in handler.body for n in ast.walk(stmt)):
            caught = "except Exception" if handler.type else "bare except"
            yield handler, f"{caught} swallows the failure"


def err002(src):
    """Fault paths: no pass-only broad except, no truncating open()."""
    if not src.in_scope(FAULT_PATHS):
        return
    for handler in src.handlers():
        if all(isinstance(stmt, ast.Pass) for stmt in handler.body):
            yield handler, "broad except: pass on a fault path"
    for call, _ in src.calls:
        if getattr(call.func, "id", None) == "open":
            mode = next((k.value for k in call.keywords if k.arg == "mode"),
                        call.args[1] if len(call.args) > 1 else None)
            if str(getattr(mode, "value", "r")).startswith(("w", "x")):
                yield call, "non-atomic open(..., 'w'); os.replace a temp"


def _key(node):
    """``name`` or ``self.attr`` an operand names (through subscripts)."""
    while isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Name):
        return node.id
    if (isinstance(node, ast.Attribute) and
            getattr(node.value, "id", None) == "self"):
        return f"self.{node.attr}"
    return None


def _small_array(value, src):
    """np.zeros(..., dtype=np.uint8), arr.astype(np.uint16), ..."""
    def small(dtype):
        return (getattr(dtype, "value", None) in SMALL_DTYPES or
                src.resolve(dtype).rsplit(".", 1)[-1] in SMALL_DTYPES)
    if not isinstance(value, ast.Call):
        return False
    if getattr(value.func, "attr", None) == "astype":
        return any(small(arg) for arg in value.args)
    full = src.resolve(value.func)
    return (full.startswith("numpy.") and
            full.rsplit(".", 1)[-1] in ARRAY_FACTORIES and
            any(k.arg == "dtype" and small(k.value) for k in value.keywords))


def num001(src):
    """+/-/* on a uint8/uint16 array needs a widening .astype first."""
    small = {_key(t) for node in src.scope
             if isinstance(node, (ast.Assign, ast.AnnAssign)) and
             _small_array(node.value, src)
             for t in getattr(node, "targets", [getattr(node, "target", None)])
             if not isinstance(t, ast.Subscript)} - {None}
    arith = (ast.Add, ast.Sub, ast.Mult)
    for node in src.scope:
        if isinstance(node, ast.BinOp) and isinstance(node.op, arith):
            sides = (node.left, node.right)
            name = next((_key(s) for s in sides if _key(s) in small), None)
            if name and not any(getattr(getattr(s, "func", None), "attr",
                                        None) == "astype" for s in sides):
                yield node, f"arithmetic on narrow-int array {name!r}"
        elif (isinstance(node, ast.AugAssign) and
                isinstance(node.op, arith) and _key(node.target) in small):
            yield node, f"in-place arithmetic on {_key(node.target)!r} wraps"


def num101(src):
    """Hot-path kernels never call np.bincount with weights (float64)."""
    if src.in_scope(HOT_PATHS):
        for call, full in src.calls:
            if (full.startswith("numpy") and full.endswith(".bincount") and
                    (len(call.args) > 1 or
                     any(k.arg == "weights" for k in call.keywords))):
                yield call, "np.bincount with weights accumulates float64"


CHECKS = {"DET001": det001, "DET002": det002, "DET003": det003,
          "TEL001": tel001, "ERR001": err001, "ERR002": err002,
          "NUM001": num001, "NUM101": num101}


def lint_source(src):
    return [Violation(rule, src.path, src.scope[node], node.lineno, text)
            for rule, check in CHECKS.items() for node, text in check(src)]


def lint(text, path="mod.py"):
    """Every violation in a (dedented) source string."""
    return lint_source(Source(textwrap.dedent(text), path))


def fired(text, path="mod.py"):
    """Sorted ids of the invariants a source string breaks."""
    return sorted({v.rule for v in lint(text, path)})


@functools.lru_cache(maxsize=None)
def shipped_sources():
    """Every module under SCANNED_DIRS, parsed once per test session."""
    return tuple(Source(path.read_text(encoding="utf-8"),
                        path.relative_to(REPO_ROOT).as_posix())
                 for directory in SCANNED_DIRS
                 for path in sorted((REPO_ROOT / directory).rglob("*.py")))


#: SNAP001: Campaign attributes deliberately absent from the snapshot.
SNAPSHOT_EXEMPT = (
    # Immutable identity, fixed after __init__/start(); restore() keeps
    # them (model is not listed: the snapshot reads it as a started-guard).
    "config", "built", "program", "executor", "instrumentation", "mutator",
    "_hang_budget_cycles", "_curve_step",
    # Lifetime supervision counters, semantically NOT rolled back on
    # restore (they count events over the instance's whole life).
    "restarts", "faults_injected",
    # Transient fault state, explicitly reset to 1.0 by restore_campaign.
    "fault_multiplier",
    # Telemetry span handle, fixed after __init__ (the tracer's state
    # rides inside telemetry_state; the handle is a stable binding).
    "_tracer", "_span_run_one",
)


class _ReadSpy:
    """Stands in for a campaign and records every attribute read."""

    def __init__(self, target):
        self.__dict__.update(_target=target, _read=set())

    def __getattr__(self, name):
        self._read.add(name)
        return getattr(self._target, name)


def snapshot_drift(campaign, snapshot, exempt=SNAPSHOT_EXEMPT):
    """Attributes neither read by ``snapshot`` nor exempt (resume would
    drop them), and exemptions that are read or name no attribute."""
    spy = _ReadSpy(campaign)
    snapshot(spy)
    fields, read, exempt = set(vars(campaign)), spy._read, set(exempt)
    return ([f"{a}: not captured and not exempt"
             for a in sorted(fields - read - exempt)] +
            [f"{a}: exempt but captured" for a in sorted(exempt & read)] +
            [f"{a}: exempt but never set" for a in sorted(exempt - fields)])


@functools.lru_cache(maxsize=None)
def started_campaign(fuzzer):
    """A campaign after start() and a first window (shared: read only)."""
    from repro.fuzzer import Campaign, CampaignConfig
    campaign = Campaign(CampaignConfig(
        benchmark="zlib", fuzzer=fuzzer, map_size=1 << 16, scale=0.05,
        seed_scale=0.05, virtual_seconds=1.0, max_real_execs=200,
        batch_window=4))
    campaign.start()
    campaign.step_until(1.0)
    return campaign


#: EXP001: module-name prefixes of experiment modules.
EXPERIMENT_PREFIXES = ("fig", "table", "extra_")


def registry_problems(modules, experiments, order):
    """Drift between experiment modules (name -> module), the runner's
    ``EXPERIMENTS`` (key -> a module's ``run``) and ``ORDER``."""
    keys = {run.__module__.rsplit(".", 1)[-1]: key
            for key, run in experiments.items()}
    problems = [f"{key}: in ORDER but not registered"
                for key in order if key not in experiments]
    for name, module in sorted(modules.items()):
        if not name.startswith(EXPERIMENT_PREFIXES):
            continue
        key = keys.get(name)
        if key is None:
            problems.append(f"{name}: not registered in EXPERIMENTS")
            continue
        declared = getattr(module, "EXPERIMENT_ID", None)
        problems += [f"{name}: {what}" for what, bad in (
            (f"EXPERIMENT_ID {declared!r} is not the registry key {key!r}",
             declared != key),
            ("no module docstring", not module.__doc__),
            ("no run() entry point", not callable(getattr(module, "run", 0))),
            ("registered but missing from ORDER", key not in order)) if bad]
    return problems
