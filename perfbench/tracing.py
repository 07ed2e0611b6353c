"""Span-recording shims for the traced run, installed from outside the program.

Each traced function is replaced, in every qgrass module namespace that
binds it (``from .gf import rref`` makes ``grassproc.rref`` a second
binding), by a shim that records a span: op, id, parent, name, start and
end.  Spans stay in memory; ``write_jsonl`` writes them out when a run ends.
``FieldSpec`` methods are deliberately not wrapped.
"""

import json
import sys
import time
from collections import Counter, defaultdict
from fractions import Fraction

# Functions that get a span, as "module.function".
SPANNED = (
    "cli.main",
    "grassproc.simulate",
    "grassproc.substream",
    "grassproc.trajectory_record",
    "grassproc.codim_class_prob_fraction",
    "grassproc.codim_class_log_prob",
    "gf.rref",
    "gf.format_subspace",
    "gf.parse_subspace",
    "qcomb.q_binomial",
    "qdist.log_q_neg_pochhammer",
    "qdist.mle_theta",
    "qdist.m_qn",
    "qdist.pmf",
    "aep.typical_set",
    "aep.check_aep",
    "aep.encode",
    "aep.decode",
    "aep.make_block_code",
)

# Functions that are only counted, where calling them: a span per call would
# cost more than the call.  Only the aep binding is counted, because the
# pivot-set walks of rank/unrank are the calls made from aep.
COUNTED = ("aep.free_positions",)

CLASS_PROB = ("grassproc.codim_class_prob_fraction", "grassproc.codim_class_log_prob")


class Tracer:
    def __init__(self):
        self.spans = []  # [op, id, parent, name, start_ns, end_ns]
        self.stack = []
        self.counts = Counter()
        self.op = 0
        self.max_bits = 0
        self._saved = []  # (module, attribute, original)
        self.missing = []

    def install(self, package):
        """Patch every binding of the traced functions in package's modules."""
        modules = [m for name, m in sys.modules.items()
                   if name == package or name.startswith(package + ".")]
        for qualified in SPANNED + COUNTED:
            home, attr = qualified.split(".")
            original = getattr(sys.modules.get(f"{package}.{home}"), attr, None)
            if original is None:
                self.missing.append(qualified)
                continue
            if qualified in COUNTED:
                shim = self._counter(qualified, original)
                targets = [sys.modules[f"{package}.{home}"]]
            else:
                shim = self._span(qualified, original)
                targets = modules
            for module in targets:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, name, original))
                        setattr(module, name, shim)

    def uninstall(self):
        for module, name, original in reversed(self._saved):
            setattr(module, name, original)
        self._saved.clear()

    def reset(self):
        self.spans = []
        self.stack.clear()
        self.counts.clear()
        self.max_bits = 0

    def _span(self, name, fn):
        stack, clock = self.stack, time.perf_counter_ns
        tracer = self

        def shim(*args, **kwargs):
            spans = tracer.spans
            sid = len(spans)
            span = [tracer.op, sid, stack[-1] if stack else -1, name, 0, 0]
            spans.append(span)
            stack.append(sid)
            span[4] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = clock()
                stack.pop()
            tracer._measure(name, args, result)
            return result

        return shim

    def _counter(self, name, fn):
        counts = self.counts

        def shim(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return shim

    def _measure(self, name, args, result):
        if name == "gf.rref":
            self.counts["gf.rref.elems"] += len(args[0]) * args[1]
        elif name == "aep.typical_set":
            self.counts["aep.class_mass.useful"] += result.delta_codim + 1
        elif name in CLASS_PROB and isinstance(result, Fraction):
            bits = result.numerator.bit_length() + result.denominator.bit_length()
            self.max_bits = max(self.max_bits, bits)

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for op, sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"op": op, "id": sid, "parent": parent, "name": name,
                                     "start_ns": start, "end_ns": end}) + "\n")


def layer_metrics(tracer, ops, scale):
    """Per-layer metrics of one traced pass of `ops` ops.

    Times are per op and multiplied by `scale` (to reference host speed):
    ``.ms``/``.us`` is a span's whole duration, ``.self_ms`` its duration
    minus its child spans.  Counts are totals over the pass.
    """
    calls = Counter()
    total = defaultdict(int)
    child = defaultdict(int)
    spans = tracer.spans
    for op, sid, parent, name, start, end in spans:
        calls[name] += 1
        total[name] += end - start
        if parent >= 0:
            child[spans[parent][3]] += end - start
    self_ns = {name: total[name] - child[name] for name in total}

    def ms(ns):
        return ns * scale / 1e6 / ops

    computed = sum(calls[n] for n in CLASS_PROB)
    elems = tracer.counts["gf.rref.elems"]
    return {
        "cli.self_ms": ms(self_ns.get("cli.main", 0)),
        "grassproc.simulate.self_ms": ms(self_ns.get("grassproc.simulate", 0)),
        "grassproc.substream.calls": calls["grassproc.substream"],
        "grassproc.substream.us": ms(total["grassproc.substream"]) * 1e3,
        "grassproc.trajectory_record.self_ms": ms(self_ns.get("grassproc.trajectory_record", 0)),
        "gf.rref.calls": calls["gf.rref"],
        "gf.rref.elems": elems,
        "gf.rref.ms": ms(total["gf.rref"]),
        "gf.rref.ns_per_elem": total["gf.rref"] * scale / elems if elems else 0.0,
        "gf.format_subspace.ms": ms(total["gf.format_subspace"]),
        "gf.parse_subspace.ms": ms(total["gf.parse_subspace"]),
        "qcomb.q_binomial.calls": calls["qcomb.q_binomial"],
        "qcomb.q_binomial.ms": ms(total["qcomb.q_binomial"]),
        "qdist.log_q_neg_pochhammer.calls": calls["qdist.log_q_neg_pochhammer"],
        "qdist.log_q_neg_pochhammer.ms": ms(total["qdist.log_q_neg_pochhammer"]),
        "qdist.mle_theta.ms": ms(total["qdist.mle_theta"]),
        "qdist.m_qn.calls": calls["qdist.m_qn"],
        "qdist.pmf.ms": ms(total["qdist.pmf"]),
        "aep.typical_set.ms": ms(total["aep.typical_set"]),
        "aep.class_probs.computed": computed,
        "aep.class_mass.useful_ratio":
            tracer.counts["aep.class_mass.useful"] / computed if computed else 0.0,
        "aep.class_prob.max_bits": tracer.max_bits,
        "aep.check_aep.self_ms": ms(self_ns.get("aep.check_aep", 0)),
        "aep.encode.ms": ms(total["aep.encode"]),
        "aep.decode.ms": ms(total["aep.decode"]),
        "aep.make_block_code.ms": ms(total["aep.make_block_code"]),
        "aep.rank.pivot_sets": tracer.counts["aep.free_positions"],
    }


# Metrics that count work: they must repeat exactly between runs at one seed.
EXACT = (
    "grassproc.substream.calls", "gf.rref.calls", "gf.rref.elems",
    "qcomb.q_binomial.calls", "qdist.log_q_neg_pochhammer.calls", "qdist.m_qn.calls",
    "aep.class_probs.computed", "aep.rank.pivot_sets", "aep.class_prob.max_bits",
)
