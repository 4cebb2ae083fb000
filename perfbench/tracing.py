"""In-memory spans around the program's public calls, and the per-layer metrics made from them.

A span records its name, layer, start and end (perf_counter_ns), its
parent span, the group it ran in (a set-up or a round) and counters.
Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.group = "setup-0"
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, layer: str, **counters):
        rec = {
            "id": len(self.spans),
            "name": name,
            "layer": layer,
            "group": self.group,
            "parent": self._stack[-1] if self._stack else None,
            "counters": counters,
            "start_ns": time.perf_counter_ns(),
            "end_ns": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield counters
        finally:
            rec["end_ns"] = time.perf_counter_ns()
            self._stack.pop()

    def self_times(self) -> list[int]:
        """Each span's duration less the part its children cover, in ns."""
        out = [s["end_ns"] - s["start_ns"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                out[s["parent"]] -= s["end_ns"] - s["start_ns"]
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s, self_ns in zip(self.spans, self.self_times()):
                fh.write(json.dumps({**s, "self_ns": self_ns}) + "\n")


SESSION_CALLS = tuple(
    f"protocol.{scheme}_{op}_message"
    for scheme in ("dft", "hgr")
    for op in ("encrypt", "decrypt")
)
SESSION_REPLAYS = tuple("replay." + name.split(".", 1)[1] for name in SESSION_CALLS)

# metric -> (span names, kind, counter).  Per group (one set-up or one
# round): "s" sums self time in seconds, "us" divides the summed self
# time by the summed counter (by the number of spans when the counter is
# None) in microseconds, "count" sums the counter.  The metric is the
# median over the groups that hold such a span.
SPAN_METRICS = {
    "arith.factorize_s": (("arith.factorize",), "s", None),
    "arith.crt_combine_us": (("arith.crt_combine",), "us", "calls"),
    "analysis.enumerate_roots_s": (("analysis.enumerate_roots",), "s", None),
    "analysis.roots_enumerated": (("analysis.enumerate_roots",), "count", "roots"),
    "analysis.find_root_s": (("analysis.find_root",), "s", None),
    "analysis.ring_create_us": (("analysis.ring_create",), "us", None),
    "analysis.is_primitive_root_us": (("analysis.is_primitive_root",), "us", None),
    "dft.blocks": (("dft.forward", "dft.inverse"), "count", "blocks"),
    "dft.forward_s": (("dft.forward",), "s", None),
    "dft.forward_block_us": (("dft.forward",), "us", "blocks"),
    "dft.inverse_s": (("dft.inverse",), "s", None),
    "dft.inverse_block_us": (("dft.inverse",), "us", "blocks"),
    "group_ring.synthesis_s": (("group_ring.synthesis",), "s", None),
    "group_ring.synthesis_block_us": (("group_ring.synthesis",), "us", "blocks"),
    "group_ring.spectrum_s": (("group_ring.spectrum",), "s", None),
    "group_ring.spectrum_block_us": (("group_ring.spectrum",), "us", "blocks"),
    "rsa.keygen_us": (("rsa.keygen",), "us", None),
    "rsa.encrypt_us": (("rsa.encrypt",), "us", None),
    "rsa.decrypt_us": (("rsa.decrypt",), "us", None),
    "rsa.read_key_us": (("rsa.read_key",), "us", None),
    "codec.text_to_codes_s": (("codec.text_to_codes",), "s", None),
    "codec.pad_and_block_s": (("codec.pad_and_block",), "s", None),
    "codec.codes_to_text_s": (("codec.codes_to_text",), "s", None),
    "codec.unapply_table_s": (("codec.unapply_table",), "s", None),
    "codec.gen_unit_table_us": (("codec.gen_unit_table",), "us", None),
    "codec.read_table_us": (("codec.read_table",), "us", None),
    "protocol.write_ciphertext_s": (("protocol.write_ciphertext",), "s", None),
    "protocol.read_ciphertext_s": (("protocol.read_ciphertext",), "s", None),
    "protocol.ciphertext_bytes": (("protocol.write_ciphertext",), "count", "bytes"),
    "protocol.choose_omega_us": (("protocol.choose_omega",), "us", None),
    "protocol.recover_omega_us": (("protocol.recover_omega",), "us", None),
    "cli.interpreter_s": (("cli.interpreter",), "s", None),
    "cli.cold_start_s": (("cli.cold_start",), "s", None),
    **{
        f"cli.{cmd.replace('-', '_')}_s": ((f"cli.{cmd}",), "s", None)
        for cmd in (
            "keygen", "choose-omega", "hgr-table", "dft-encrypt",
            "dft-decrypt", "hgr-encrypt", "hgr-decrypt",
        )
    },
}


def _median_over_groups(per_group: dict) -> float:
    return statistics.median(per_group.values()) if per_group else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric of the run, from its spans."""
    self_ns = tracer.self_times()
    dur = {s["id"]: s["end_ns"] - s["start_ns"] for s in tracer.spans}
    by_name: dict[str, list[dict]] = {}
    for s in tracer.spans:
        by_name.setdefault(s["name"], []).append(s)

    def sums(names, value) -> dict[str, float]:
        out: dict[str, float] = {}
        for name in names:
            for s in by_name.get(name, ()):
                out[s["group"]] = out.get(s["group"], 0) + value(s)
        return out

    metrics = {}
    for metric, (names, kind, counter) in SPAN_METRICS.items():
        if kind == "count":
            metrics[metric] = _median_over_groups(sums(names, lambda s: s["counters"][counter]))
            continue
        busy = sums(names, lambda s: self_ns[s["id"]])
        if kind == "s":
            metrics[metric] = _median_over_groups(busy) / 1e9
        else:
            per = sums(names, lambda s: s["counters"][counter] if counter else 1)
            metrics[metric] = _median_over_groups(
                {g: busy[g] / per[g] / 1e3 for g in busy if per[g]}
            )

    def child_time(parents) -> dict[str, float]:
        ids = {s["id"] for name in parents for s in by_name.get(name, ())}
        return sums(
            {s["name"] for s in tracer.spans if s["parent"] in ids},
            lambda s: dur[s["id"]] if s["parent"] in ids else 0,
        )

    calls = sums(SESSION_CALLS, lambda s: dur[s["id"]])
    replays = sums(SESSION_REPLAYS, lambda s: dur[s["id"]])
    layers = child_time(SESSION_REPLAYS)
    metrics["protocol.unattributed_s"] = _median_over_groups(
        {g: calls[g] - layers.get(g, 0) for g in calls}
    ) / 1e9
    metrics["trace.overhead_pct"] = _median_over_groups(
        {g: 100 * (replays[g] - calls[g]) / calls[g] for g in calls if g in replays}
    )
    analyze = sums(("cli.analyze",), lambda s: dur[s["id"]])
    library = child_time(("replay.analyze",))
    metrics["cli.render_s"] = _median_over_groups(
        {g: analyze[g] - library.get(g, 0) for g in analyze}
    ) / 1e9
    return metrics
