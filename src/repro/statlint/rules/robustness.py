"""Robustness rules: silent exception swallows and narrow-int overflow.

* **ERR001** — ``except Exception`` / bare ``except`` whose handler
  neither re-raises nor routes the failure into the
  :mod:`repro.core.errors` taxonomy. Klees et al. single out silently
  divergent runs as the chief fuzzing-evaluation failure; a swallowed
  exception is exactly that. Handlers that construct or raise a
  ``*Error`` (chaining the original as ``__cause__``) pass — that is
  the supervised-fault pattern the parallel session uses.
* **ERR002** — on artifact-handling paths (``err002_paths``): a
  broad ``except`` whose entire body is ``pass``, or a plain
  ``open(..., "w"/"wb")`` write. Crash safety hangs on artifacts
  being written atomically (temp file + ``os.replace``) and
  corruption being *routed* (quarantine + integrity log), never
  ignored; a torn ``open("w")`` write or a pass-swallowed integrity
  failure silently voids both. Append-mode opens pass (an integrity
  log is append-only by design), as do reads and ``r+b``.
* **NUM001** — ``+``/``-``/``*`` arithmetic where an operand is a
  ``uint8``/``uint16`` numpy array (map counters, virgin bytes)
  without a widening ``.astype`` on either side. 8-bit counter adds
  wrap at 256; every intentional widening in ``core``/``memsim`` casts
  first (``store[slots].astype(np.int64) + summed``), and this rule
  keeps it that way.
"""

from __future__ import annotations

import ast
from typing import Iterator, Set

from ..config import LintConfig, path_matches
from ..registry import FileRule, register

_BROAD = ("Exception", "BaseException")


def _is_broad_handler(handler: ast.ExceptHandler) -> bool:
    node = handler.type
    if node is None:
        return True
    types = node.elts if isinstance(node, ast.Tuple) else [node]
    for t in types:
        if isinstance(t, ast.Name) and t.id in _BROAD:
            return True
    return False


def _handler_routes_error(handler: ast.ExceptHandler) -> bool:
    """Re-raises, or references a ``*Error`` name (taxonomy chaining)."""
    for node in ast.walk(ast.Module(body=handler.body,
                                    type_ignores=[])):
        if isinstance(node, ast.Raise):
            return True
        if isinstance(node, ast.Name) and node.id.endswith("Error"):
            return True
        if isinstance(node, ast.Attribute) and node.attr.endswith("Error"):
            return True
    return False


@register
class BroadExceptRule(FileRule):
    id = "ERR001"
    title = "broad except neither re-raises nor chains an Error"
    rationale = ("A swallowed exception silently diverges the run; "
                 "either re-raise, or wrap into a repro.core.errors "
                 "class (with __cause__) so supervision can account "
                 "for the failure.")

    def check_file(self, source, config: LintConfig) -> Iterator:
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Try):
                continue
            for handler in node.handlers:
                if (_is_broad_handler(handler) and
                        not _handler_routes_error(handler)):
                    caught = ("bare except" if handler.type is None
                              else "except Exception")
                    yield self.finding(
                        source.relpath, handler.lineno,
                        handler.col_offset,
                        f"{caught} swallows the failure; re-raise or "
                        f"chain it into a repro.core.errors class")


def _open_write_mode(node: ast.Call) -> bool:
    """``open(...)`` with a truncating write mode (``w``/``wb``/...)."""
    if not (isinstance(node.func, ast.Name) and node.func.id == "open"):
        return False
    mode: ast.AST = ast.Constant("r")
    if len(node.args) >= 2:
        mode = node.args[1]
    for keyword in node.keywords:
        if keyword.arg == "mode":
            mode = keyword.value
    return (isinstance(mode, ast.Constant) and
            isinstance(mode.value, str) and
            mode.value.startswith(("w", "x")))


@register
class FleetArtifactWriteRule(FileRule):
    id = "ERR002"
    title = "pass-swallowed failure or non-atomic write on a fleet path"
    rationale = ("Fleet artifacts must be written atomically "
                 "(atomic_write_bytes: temp + fsync + rename) and "
                 "failures routed (quarantine + integrity log); a "
                 "torn open('w') write or an except:pass on these "
                 "paths silently voids the crash-safety contract.")

    def check_file(self, source, config: LintConfig) -> Iterator:
        if not path_matches(source.relpath, config.err002_paths):
            return
        for node in ast.walk(source.tree):
            if isinstance(node, ast.Try):
                for handler in node.handlers:
                    if (_is_broad_handler(handler) and
                            all(isinstance(stmt, ast.Pass)
                                for stmt in handler.body)):
                        yield self.finding(
                            source.relpath, handler.lineno,
                            handler.col_offset,
                            "broad except with a pass-only body on a "
                            "fleet artifact path; route the failure "
                            "(quarantine/log_integrity) or narrow the "
                            "exception")
            elif isinstance(node, ast.Call) and _open_write_mode(node):
                yield self.finding(
                    source.relpath, node.lineno, node.col_offset,
                    "non-atomic open(..., 'w') on a fleet artifact "
                    "path; a crash mid-write leaves a torn file — use "
                    "atomic_write_bytes/write_artifact")


_SMALL_DTYPES = ("uint8", "uint16", "int8", "int16")
_ARRAY_FACTORIES = ("zeros", "full", "empty", "ones", "zeros_like",
                    "full_like", "empty_like", "ones_like", "array",
                    "frombuffer", "asarray")


def _dtype_is_small(node: ast.AST, imports) -> bool:
    if isinstance(node, ast.Constant) and node.value in _SMALL_DTYPES:
        return True
    full = imports.resolve(node)
    return bool(full) and full.rsplit(".", 1)[-1] in _SMALL_DTYPES


def _is_small_producer(value: ast.AST, imports) -> bool:
    """A call that yields a small-int array: np.zeros(..., dtype=u8),
    arr.astype(np.uint8), ..."""
    if not isinstance(value, ast.Call):
        return False
    func = value.func
    if isinstance(func, ast.Attribute) and func.attr == "astype":
        return any(_dtype_is_small(a, imports) for a in value.args)
    full = imports.resolve(func)
    if full and full.split(".", 1)[0] == "numpy" and \
            full.rsplit(".", 1)[-1] in _ARRAY_FACTORIES:
        for keyword in value.keywords:
            if keyword.arg == "dtype":
                return _dtype_is_small(keyword.value, imports)
    return False


def _target_key(node: ast.AST):
    """Tracking key for assignment targets: `name` or `self.attr`."""
    if isinstance(node, ast.Name):
        return node.id
    if (isinstance(node, ast.Attribute) and
            isinstance(node.value, ast.Name) and node.value.id == "self"):
        return f"self.{node.attr}"
    return None


def _expr_key(node: ast.AST):
    """Tracking key for an operand, looking through subscripts/slices."""
    while isinstance(node, ast.Subscript):
        node = node.value
    return _target_key(node)


def _is_widening_cast(node: ast.AST) -> bool:
    return (isinstance(node, ast.Call) and
            isinstance(node.func, ast.Attribute) and
            node.func.attr == "astype")


@register
class NarrowIntArithmeticRule(FileRule):
    id = "NUM001"
    title = "arithmetic on a narrow-int array without a widening cast"
    rationale = ("uint8/uint16 map counters wrap silently under +/-/*; "
                 "cast with .astype(np.int64) first (saturation or "
                 "wrap must then be applied explicitly).")

    def _collect_small(self, source) -> Set[str]:
        small: Set[str] = set()
        for node in ast.walk(source.tree):
            if isinstance(node, ast.Assign):
                if _is_small_producer(node.value, source.imports):
                    for target in node.targets:
                        key = _target_key(target)
                        if key:
                            small.add(key)
            elif isinstance(node, ast.AnnAssign) and node.value:
                if _is_small_producer(node.value, source.imports):
                    key = _target_key(node.target)
                    if key:
                        small.add(key)
        return small

    def check_file(self, source, config: LintConfig) -> Iterator:
        small = self._collect_small(source)
        if not small:
            return
        arith = (ast.Add, ast.Sub, ast.Mult)
        for node in ast.walk(source.tree):
            if isinstance(node, ast.BinOp) and isinstance(node.op, arith):
                left_small = _expr_key(node.left) in small
                right_small = _expr_key(node.right) in small
                if not (left_small or right_small):
                    continue
                if (_is_widening_cast(node.left) or
                        _is_widening_cast(node.right)):
                    continue
                name = (_expr_key(node.left) if left_small
                        else _expr_key(node.right))
                yield self.finding(
                    source.relpath, node.lineno, node.col_offset,
                    f"arithmetic on narrow-int array {name!r} can "
                    f"overflow; widen with .astype(np.int64) first")
            elif (isinstance(node, ast.AugAssign) and
                    isinstance(node.op, arith) and
                    _expr_key(node.target) in small):
                yield self.finding(
                    source.relpath, node.lineno, node.col_offset,
                    f"in-place arithmetic on narrow-int array "
                    f"{_expr_key(node.target)!r} wraps at the dtype "
                    f"bound; widen or make the policy explicit")
