"""Per-layer metrics from the span files of one traced pipeline pass.

Layers are the `cganlab` modules; a span is named `<module>.<function>`.
Every metric in PER_LAYER is always produced: a name the program no
longer has yields zero calls and zero time instead of an error.
"""

from __future__ import annotations

import math

from workloads import STAGES

# (name, unit) of every per-layer metric, in report order
PER_LAYER = [
    ("cli.import_s", "s"),
    *[(f"cli.{stage}.self_s", "s") for stage in STAGES],
    ("pairing.sample_pair_batch.calls", "count"),
    ("pairing.sample_pair_batch.busy_s", "s"),
    ("pairing.sample_pair_batch.p50_ms", "ms"),
    ("pairing.sample_pair_batch.tail_ms", "ms"),
    ("pairing.ac_same_key_share", "share"),
    ("pairing.load_dataset_csv.busy_s", "s"),
    ("pairing.save_dataset_csv.busy_s", "s"),
    ("tasks.sample_dataset.busy_s", "s"),
    ("nets.disc_forward.calls", "count"),
    ("nets.disc_forward.rows", "count"),
    ("nets.disc_forward.busy_s", "s"),
    ("nets.disc_forward.p50_ms", "ms"),
    ("nets.disc_forward.tail_ms", "ms"),
    ("nets.disc_forward.calls_per_d_update", "count"),
    ("nets.gen_forward.calls", "count"),
    ("nets.gen_forward.busy_s", "s"),
    ("nets.gen_forward.calls_per_step", "count"),
    ("autodiff.backward.calls", "count"),
    ("autodiff.backward.busy_s", "s"),
    ("autodiff.backward.p50_ms", "ms"),
    ("autodiff.backward.tail_ms", "ms"),
    ("autodiff.graph_nodes.d_update", "count"),
    ("autodiff.graph_nodes.g_update", "count"),
    ("losses.d_loss_total.calls", "count"),
    ("losses.d_loss_total.busy_s", "s"),
    ("losses.g_loss.calls", "count"),
    ("losses.g_loss.busy_s", "s"),
    ("trainer.adam_step.calls", "count"),
    ("trainer.adam_step.busy_s", "s"),
    ("trainer.adam_step.p50_ms", "ms"),
    ("trainer.train.busy_s", "s"),
    ("trainer.train.self_s", "s"),
    ("trainer.step.p50_ms", "ms"),
    ("trainer.step.tail_ms", "ms"),
    ("trainer.optimal_discriminator_phase.busy_s", "s"),
    ("trainer.optimal_discriminator_phase.steps", "count"),
    ("trainer.save_checkpoint.calls", "count"),
    ("trainer.save_checkpoint.busy_s", "s"),
    ("trainer.save_checkpoint.bytes", "bytes"),
    ("trainer.load_checkpoint.busy_s", "s"),
    ("evalcond.collect_logits.busy_s", "s"),
    ("evalcond.oracle_accuracy.busy_s", "s"),
    ("evalcond.ndb_score.calls", "count"),
    ("evalcond.ndb_score.busy_s", "s"),
    ("trace.overhead_share", "share"),
]

# metrics that are call counts or ratios of counts: they repeat exactly
# between runs of the same code and input
COUNT_METRICS = [name for name, unit in PER_LAYER
                 if unit in ("count", "bytes") or name == "pairing.ac_same_key_share"]

TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail(values: list[float]) -> tuple[float, float | None]:
    """Highest ladder percentile with at least ten samples beyond it.

    Returns (value, percentile); with fewer than 20 samples no percentile
    qualifies and the maximum is returned with percentile None.
    """
    if not values:
        return 0.0, None
    for p in TAIL_LADDER:
        if len(values) * (1.0 - p / 100.0) >= 10:
            return percentile(values, p), p
    return max(values), None


class StageSpans:
    """Span arrays of one traced stage, with the lookups the metrics need."""

    def __init__(self, doc: dict):
        self.names = doc["names"]
        self.name_id = doc["name_id"]
        self.parent = doc["parent"]
        self.start = doc["start"]
        self.end = doc["end"]
        self.counters = doc["counters"]
        self.by_name: dict[str, list[int]] = {}
        self.children: dict[int, list[int]] = {}
        for idx, nid in enumerate(self.name_id):
            self.by_name.setdefault(self.names[nid], []).append(idx)
            self.children.setdefault(self.parent[idx], []).append(idx)

    def name(self, idx: int) -> str:
        return self.names[self.name_id[idx]]

    def duration(self, idx: int) -> float:
        return self.end[idx] - self.start[idx]

    def spans(self, name: str) -> list[int]:
        return self.by_name.get(name, [])

    def ancestor(self, idx: int, name: str) -> int:
        """Index of the nearest enclosing span called `name`, or -1."""
        p = self.parent[idx]
        while p >= 0 and self.name(p) != name:
            p = self.parent[p]
        return p

    def self_time(self, idx: int) -> float:
        """Span duration minus the time its direct children cover."""
        children = sum(self.duration(c) for c in self.children.get(idx, []))
        return self.duration(idx) - children

    def layer_self_time(self, idx: int) -> float:
        """Span duration minus time in spans of other modules below it.

        Spans of the span's own module nest inside it without counting as
        covered; the first span of any other module covers its interval.
        """
        module = self.name(idx).partition(".")[0]
        covered = 0.0
        pending = [idx]
        while pending:
            for c in self.children.get(pending.pop(), []):
                if self.name(c).partition(".")[0] == module:
                    pending.append(c)
                else:
                    covered += self.duration(c)
        return self.duration(idx) - covered


def pass_metrics(stage_docs: dict[str, dict]) -> tuple[dict, dict]:
    """Per-layer metrics of one traced pass; returns (metrics, tail percentiles).

    `stage_docs` maps each stage name to the span file its launcher wrote.
    trace.overhead_share is not set here: it needs the untraced pass.
    """
    stages = {stage: StageSpans(doc) for stage, doc in stage_docs.items()}
    out: dict[str, float] = {}
    tails: dict[str, float | None] = {}

    def durations(name):
        return [s.duration(i) for s in stages.values() for i in s.spans(name)]

    def counter(key):
        return sum(s.counters.get(key, 0) for s in stages.values())

    def timing(name, per_call=False, with_tail=False):
        d = durations(name)
        out[f"{name}.calls"] = len(d)
        out[f"{name}.busy_s"] = math.fsum(d)
        if per_call:
            out[f"{name}.p50_ms"] = percentile(d, 50) * 1e3 if d else 0.0
        if with_tail:
            value, p = tail(d)
            out[f"{name}.tail_ms"] = value * 1e3
            tails[f"{name}.tail_ms"] = p

    out["cli.import_s"] = percentile([s.counters.get("cli.import_s", 0.0)
                                      for s in stages.values()], 50)
    for stage, s in stages.items():
        roots = s.spans("cli.main")
        out[f"cli.{stage}.self_s"] = math.fsum(s.layer_self_time(i) for i in roots)

    timing("pairing.sample_pair_batch", per_call=True, with_tail=True)
    ac_rows = counter("pairing.ac_rows")
    out["pairing.ac_same_key_share"] = counter("pairing.ac_same_key_rows") / ac_rows \
        if ac_rows else 0.0
    timing("pairing.load_dataset_csv")
    timing("pairing.save_dataset_csv")
    timing("tasks.sample_dataset")

    timing("nets.disc_forward", per_call=True, with_tail=True)
    out["nets.disc_forward.rows"] = counter("nets.disc_forward.rows")
    d_updates = counter("autodiff.backward.d_update")
    g_updates = counter("autodiff.backward.g_update")
    out["nets.disc_forward.calls_per_d_update"] = \
        counter("nets.disc_forward.before_d_update") / d_updates if d_updates else 0.0
    timing("nets.gen_forward")

    timing("autodiff.backward", per_call=True, with_tail=True)
    out["autodiff.graph_nodes.d_update"] = \
        counter("autodiff.graph_nodes.d_update.sum") / d_updates if d_updates else 0.0
    out["autodiff.graph_nodes.g_update"] = \
        counter("autodiff.graph_nodes.g_update.sum") / g_updates if g_updates else 0.0

    timing("losses.d_loss_total")
    timing("losses.g_loss")
    timing("trainer.adam_step", per_call=True)

    timing("trainer.train")
    out["trainer.train.self_s"] = math.fsum(
        s.self_time(i) for s in stages.values() for i in s.spans("trainer.train"))
    train_steps, phase_steps, gen_in_train, step_gaps = 0, 0, 0, []
    for s in stages.values():
        last = {}
        for i in s.spans("pairing.sample_pair_batch"):
            owner = s.ancestor(i, "trainer.train")
            if owner >= 0:
                train_steps += 1
                if owner in last:
                    step_gaps.append(s.start[i] - s.start[last[owner]])
                last[owner] = i
            elif s.ancestor(i, "trainer.optimal_discriminator_phase") >= 0:
                phase_steps += 1
        gen_in_train += sum(1 for i in s.spans("nets.gen_forward")
                            if s.ancestor(i, "trainer.train") >= 0)
    out["nets.gen_forward.calls_per_step"] = gen_in_train / train_steps if train_steps else 0.0
    out["trainer.step.p50_ms"] = percentile(step_gaps, 50) * 1e3 if step_gaps else 0.0
    value, p = tail(step_gaps)
    out["trainer.step.tail_ms"] = value * 1e3
    tails["trainer.step.tail_ms"] = p

    timing("trainer.optimal_discriminator_phase")
    out["trainer.optimal_discriminator_phase.steps"] = phase_steps
    timing("trainer.save_checkpoint")
    out["trainer.save_checkpoint.bytes"] = counter("trainer.save_checkpoint.bytes")
    timing("trainer.load_checkpoint")
    timing("evalcond.collect_logits")
    timing("evalcond.oracle_accuracy")
    timing("evalcond.ndb_score")

    wanted = {name for name, _ in PER_LAYER} - {"trace.overhead_share"}
    return {k: v for k, v in out.items() if k in wanted}, tails
