"""Run one cganlab CLI stage with every public library function traced.

    python bench/tracer.py SPANS_OUT <cganlab cli arguments...>

The launcher imports `cganlab.cli`, wraps each public function of every
`cganlab` module under each name it is bound to (the defining module and
every module that imported it), then calls `cganlab.cli.main`. Spans
(name, start, end, parent) and counters are kept in memory and written to
SPANS_OUT as JSON when the stage exits. Nothing under `src/` is edited.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from array import array

PACKAGE = "cganlab"


class SpanRecorder:
    """In-memory span store: parallel arrays, one entry per call."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counters: dict[str, float] = {}
        # state the hooks carry between calls
        self.graph_kind: dict[int, str] = {}
        self.disc_calls_since_backward = 0

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def to_dict(self) -> dict:
        return {"names": self.names, "name_id": self.name_id.tolist(),
                "parent": self.parent.tolist(), "start": self.start.tolist(),
                "end": self.end.tolist(), "counters": self.counters}


# -- hooks: counts read from a traced call's arguments and result ---------
# Each hook sees (recorder, args, kwargs, result). A hook for a name that
# the program no longer has simply never runs.

def _bind_params(rec, args, kwargs, result):
    net = args[0] if args else kwargs["net"]
    graph = args[1] if len(args) > 1 else kwargs["graph"]
    kind = "d_update" if type(net).__name__ == "Discriminator" else "g_update"
    rec.graph_kind[id(graph)] = kind


def _backward(rec, args, kwargs, result):
    root = args[0] if args else kwargs["root"]
    kind = rec.graph_kind.get(id(root.graph), "other")
    rec.count(f"autodiff.backward.{kind}")
    rec.count(f"autodiff.graph_nodes.{kind}.sum", len(root.graph))
    rec.count(f"nets.disc_forward.before_{kind}", rec.disc_calls_since_backward)
    rec.disc_calls_since_backward = 0


def _disc_forward(rec, args, kwargs, result):
    x = args[1] if len(args) > 1 else kwargs["x"]
    rec.count("nets.disc_forward.rows", x.shape[0])
    rec.disc_calls_since_backward += 1


def _sample_pair_batch(rec, args, kwargs, batch):
    ds = args[0] if args else kwargs["ds"]
    src = batch.ac_source_idx if batch.ac_source_idx is not None \
        else batch.idx[batch.ac_perm]
    if ds.labels is not None:
        same = ds.labels[batch.idx] == ds.labels[src]
    else:
        same = (ds.xs[batch.idx] == ds.xs[src]).all(axis=1)
    rec.count("pairing.ac_rows", same.shape[0])
    rec.count("pairing.ac_same_key_rows", int(same.sum()))


def _save_checkpoint(rec, args, kwargs, result):
    path = args[4] if len(args) > 4 else kwargs["path"]
    rec.count("trainer.save_checkpoint.bytes", os.path.getsize(path))


HOOKS = {
    "nets.bind_params": _bind_params,
    "autodiff.backward": _backward,
    "nets.disc_forward": _disc_forward,
    "pairing.sample_pair_batch": _sample_pair_batch,
    "trainer.save_checkpoint": _save_checkpoint,
}


def _traced(rec: SpanRecorder, name: str, fn):
    hook = HOOKS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if hook is not None:
            try:
                hook(rec, args, kwargs, result)
            except (AttributeError, IndexError, KeyError, OSError, TypeError) as e:
                # the program changed shape under a hook: count it and keep
                # the stage running, so the trace never fails an operation
                rec.count(f"trace.hook_errors.{name}")
                print(f"tracer: hook {name} failed: {e!r}", file=sys.stderr)
        return result

    return wrapper


def install(rec: SpanRecorder) -> None:
    """Wrap every public function of the package's modules, under every binding."""
    modules = [m for n, m in sys.modules.items()
               if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
    originals = {}
    for mod in modules:
        short = mod.__name__.rpartition(".")[2]
        for attr, obj in vars(mod).items():
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__):
                originals[id(obj)] = (obj, _traced(rec, f"{short}.{attr}", obj))
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            entry = originals.get(id(obj))
            if entry is not None and entry[0] is obj:
                setattr(mod, attr, entry[1])


def main(argv: list[str]) -> int:
    spans_out, cli_args = argv[0], argv[1:]
    rec = SpanRecorder()
    t0 = time.perf_counter()
    import cganlab.cli

    rec.counters["cli.import_s"] = time.perf_counter() - t0
    install(rec)
    try:
        code = cganlab.cli.main(cli_args)
    finally:
        with open(spans_out, "w") as fh:
            json.dump(rec.to_dict(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
