"""Layer tracing from outside the library.

`Tracer.install()` replaces each traced public function of `dhsieve` by a
wrapper, on every module binding that holds it (phase functions are
imported by name into staged, greedy, harness and recover), and each
traced method on its class.  A wrapper reads arguments and results only;
it never draws from a generator, so a traced run reproduces the untraced
one's secrets and query counts exactly.

Spans are kept in memory and written out at the end.  Each span has a
name, start, end, parent and the trial it belongs to.  Calls made
hundreds of thousands of times per trial (the *leaf* functions: combine,
negate, observations, hiding-function evaluations, race keys) are not
stored one by one: each adds its count and seconds to the enclosing
span, which bounds memory and still gives every span its self time
(its duration minus its child spans and leaf calls).
"""

from __future__ import annotations

import contextlib
import functools
import json
import re
import sys
import time
from collections import Counter, defaultdict

import dhsieve
from dhsieve.errors import SieveExhaustedError
from dhsieve.staged import staged_config
from workloads import CheckFailure

_clock = time.perf_counter


class TraceError(RuntimeError):
    """The tracer was used in a way its accounting cannot represent."""


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "trial", "leaves",
                 "attrs")

    def __init__(self, sid, name, parent, trial):
        self.id = sid
        self.name = name
        self.parent = parent
        self.trial = trial
        self.start = self.end = None
        self.leaves = {}
        self.attrs = {}

    def to_dict(self):
        return {"id": self.id, "name": self.name, "trial": self.trial,
                "parent": self.parent.id if self.parent else None,
                "start": self.start, "end": self.end,
                "leaves": self.leaves, "attrs": self.attrs}


# -- hooks: read arguments and results, record counts -----------------------


def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs[key]


def _before_sample(tr, span, args, kwargs):
    count = _arg(args, kwargs, 1, "count")
    span.attrs["qubits"] = count
    tr.counts["sample_queries"] += count


def _before_level(pos):
    def hook(tr, span, args, kwargs):
        span.attrs["n"] = _arg(args, kwargs, pos, "n")
    return hook


def _before_race(tr, span, args, kwargs):
    tr.counts["labels"] += len(_arg(args, kwargs, 0, "labels"))


def _after_match(tr, span, out):
    tr.counts["pairs"] += len(out[0])


def _after_parity(tr, span, out):
    # criterion 4: survival ratio on well-filled stages only
    stats, m = out[1], staged_config(max(2, span.attrs["n"])).m
    for size, ratio in zip(stats.list_sizes, stats.survival_ratios):
        if size >= 4 * (1 << m):
            tr.survival.append(ratio)


def _after_greedy_stats(tr, span, out):
    tr.counts["combines"] += out[1].combines
    tr.counts["work"] += out[1].work


def _after_recover(tr, span, out):
    # attempts of the outermost recovery only (substring nests power2)
    if not _inside(span, "recover"):
        tr.attempts.append(out[1].attempts)


def _after_combine(tr, out):
    tr.counts["minus"] += bool(out.minus_branch)


def _after_sample_one(tr, out):
    tr.counts["sample_queries"] += 1


# name in dhsieve -> (span name, leaf?, before-hook, after-hook)
TRACED = {
    "phase.sample_batch": ("phase.sample", False, _before_sample, None),
    "phase.sample_phase_qubit": ("phase.sample_one", True, None, _after_sample_one),
    "phase.combine": ("phase.combine", True, None, _after_combine),
    "phase.negate_label": ("phase.negate", True, None, None),
    "phase.measure_pm": ("phase.observe", True, None, None),
    "phase.cosine_observe": ("phase.observe", True, None, None),
    "phase.tomography_mod_r": ("phase.tomography", False, None, None),
    "oracle.HidingOracle.evaluate": ("oracle.eval", True, None, None),
    "oracle.ShiftPair.f": ("oracle.eval", True, None, None),
    "oracle.ShiftPair.g": ("oracle.eval", True, None, None),
    "oracle.SubstringInstance.f": ("oracle.eval", True, None, None),
    "oracle.SubstringInstance.g": ("oracle.eval", True, None, None),
    "oracle.restrict_reflection": ("oracle.derive", True, None, None),
    "oracle.with_label_automorphism": ("oracle.derive", True, None, None),
    "oracle.splice_substring": ("oracle.derive", True, None, None),
    "staged.match_by_suffix": ("staged.match", False, None, _after_match),
    "staged.run_staged_parity": ("staged.parity", False, _before_level(1), _after_parity),
    "staged.interval_sieve": ("staged.interval", False, None, None),
    "staged.run_general_interval": ("staged.general", False, None, None),
    "staged.estimate_from_quadratures": ("staged.readout", False, None, None),
    "greedy.greedy_sieve": ("greedy.sieve", False, None, _after_greedy_stats),
    "greedy.run_radix_recovery": ("greedy.radix", False, _before_level(2), None),
    "greedy.cancellation_race": ("greedy.race", False, _before_race, _after_greedy_stats),
    "greedy.race_key": ("greedy.race_key", True, None, None),
    "recover.recover_slope_power2": ("recover.power2", False, None, _after_recover),
    "recover.recover_slope_radix": ("recover.radix", False, None, _after_recover),
    "recover.recover_slope_general": ("recover.general", False, None, _after_recover),
    "recover.solve_abelian_shift": ("recover.abelian", False, None, _after_recover),
    "recover.solve_substring": ("recover.substring", False, None, _after_recover),
    "recover.verify_reflection": ("recover.verify", False, None, None),
    "statevec.rho_from_eval": ("statevec.rho", False, None, None),
    "statevec.trace_distance": ("statevec.trace", False, None, None),
    "statevec.qft_joint_law": ("statevec.qft", False, None, None),
    "harness.run_table1": ("harness.table1", False, None, None),
}

RECOVER_SPANS = ("recover.power2", "recover.radix", "recover.general",
                 "recover.abelian", "recover.substring")


class Tracer:
    """Span and counter store plus the wrappers that fill it."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.in_leaf = None
        self.counts = Counter()
        self.survival = []
        self.exhausted = Counter()    # span name -> count
        self.reasons = Counter()      # "span[n=..]: message" -> count
        self.attempts = []            # attempts of each verified recovery
        self._seen = []               # exceptions already attributed
        self._undo = []

    # -- installation -----------------------------------------------------

    def install(self):
        mods = [m for k, m in sorted(sys.modules.items())
                if m is not None and (k == "dhsieve" or k.startswith("dhsieve."))]
        for qual, (name, leaf, before, after) in TRACED.items():
            parts = qual.split(".")
            owner = getattr(dhsieve, parts[0])
            if len(parts) == 3:          # a method: patch the class
                cls = getattr(owner, parts[1])
                orig = cls.__dict__[parts[2]]
                self._patch(cls, parts[2], orig,
                            self._wrap(orig, name, leaf, before, after))
                continue
            orig = getattr(owner, parts[1])
            wrapper = self._wrap(orig, name, leaf, before, after)
            for mod in mods:
                for attr, v in list(vars(mod).items()):
                    if v is orig:
                        self._patch(mod, attr, orig, wrapper)
        return self

    def _patch(self, owner, attr, orig, wrapper):
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def _wrap(self, fn, name, leaf, before, after):
        tr = self
        if leaf:
            @functools.wraps(fn)
            def leaf_wrapper(*args, **kwargs):
                if tr.in_leaf is not None:
                    raise TraceError(f"{name} called inside leaf {tr.in_leaf}")
                tr.in_leaf = name
                t0 = _clock()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    dt = _clock() - t0
                    tr.in_leaf = None
                    agg = tr.stack[-1].leaves.get(name)
                    if agg is None:
                        agg = tr.stack[-1].leaves[name] = [0, 0.0]
                    agg[0] += 1
                    agg[1] += dt
                if after is not None:
                    after(tr, out)
                return out
            return leaf_wrapper

        @functools.wraps(fn)
        def span_wrapper(*args, **kwargs):
            if tr.in_leaf is not None:
                raise TraceError(f"{name} called inside leaf {tr.in_leaf}")
            span = tr._open(name)
            if before is not None:
                before(tr, span, args, kwargs)
            span.start = _clock()
            try:
                out = fn(*args, **kwargs)
            except SieveExhaustedError as exc:
                tr._exhausted(span, exc)
                raise
            finally:
                span.end = _clock()
                tr.stack.pop()
            if after is not None:
                after(tr, span, out)
            return out
        return span_wrapper

    def _open(self, name, trial=None):
        if not self.stack and trial is None:
            raise TraceError(f"{name} called outside a trial")
        parent = self.stack[-1] if self.stack else None
        span = Span(len(self.spans), name, parent,
                    parent.trial if parent else trial)
        self.spans.append(span)
        self.stack.append(span)
        return span

    def _exhausted(self, span, exc):
        # count each exhaustion once, at the innermost traced raiser
        if any(e is exc for e in self._seen):
            return
        self._seen.append(exc)
        self.exhausted[span.name] += 1
        level = f"[n={span.attrs['n']}]" if "n" in span.attrs else ""
        self.reasons[f"{span.name}{level}: {re.sub(r'[0-9]+', '#', str(exc))}"] += 1

    @contextlib.contextmanager
    def trial(self, index, kind):
        """Root span of one trial; every traced call nests inside it."""
        span = self._open("trial", trial=index)
        span.attrs["kind"] = kind
        span.start = _clock()
        try:
            yield span
        finally:
            span.end = _clock()
            self.stack.pop()

    # -- output -----------------------------------------------------------

    def write_spans(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_dict()) + "\n")

    def layer_metrics(self, scale=None):
        """Per-layer metrics (see LAYER_METRICS) from the recorded spans.
        scale maps a trial to the factor that turns its measured seconds
        into reference seconds (calibration.py)."""
        scale = scale or {}
        child_s = defaultdict(float)
        for sp in self.spans:
            if sp.parent is not None:
                child_s[sp.parent.id] += (sp.end - sp.start) * scale.get(sp.trial, 1.0)
        calls, total, self_s = Counter(), defaultdict(float), defaultdict(float)
        leaf_n, leaf_s = Counter(), defaultdict(float)
        for sp in self.spans:
            f = scale.get(sp.trial, 1.0)
            dur = (sp.end - sp.start) * f
            leaves = f * sum(agg[1] for agg in sp.leaves.values())
            group = "recover" if sp.name in RECOVER_SPANS else sp.name
            calls[group] += 1
            self_s[group] += dur - child_s[sp.id] - leaves
            if not _inside(sp, group):
                total[group] += dur
            for lname, (n, secs) in sp.leaves.items():
                leaf_n[lname] += n
                leaf_s[lname] += secs * f
        c = self.counts
        att = self.attempts
        m = {
            "oracle.sample_queries": c["sample_queries"],
            "oracle.verify_queries": leaf_n["oracle.eval"],
            "oracle.eval_s": leaf_s["oracle.eval"],
            "oracle.derived": leaf_n["oracle.derive"],
            "phase.sample_calls": calls["phase.sample"] + leaf_n["phase.sample_one"],
            "phase.qubits_sampled": c["sample_queries"],
            "phase.sample_s": total["phase.sample"] + leaf_s["phase.sample_one"],
            "phase.combine_calls": leaf_n["phase.combine"],
            "phase.combine_s": leaf_s["phase.combine"],
            "phase.negate_calls": leaf_n["phase.negate"],
            "phase.negate_s": leaf_s["phase.negate"],
            "phase.observe_calls": leaf_n["phase.observe"],
            "phase.observe_s": leaf_s["phase.observe"],
            "phase.tomography_s": total["phase.tomography"],
            "phase.minus_share": _ratio(c["minus"], leaf_n["phase.combine"]),
            "staged.match_calls": calls["staged.match"],
            "staged.match_s": total["staged.match"],
            "staged.pairs": c["pairs"],
            "staged.parity_calls": calls["staged.parity"],
            "staged.parity_s": total["staged.parity"],
            "staged.parity_self_s": self_s["staged.parity"],
            "staged.parity_exhausted": self.exhausted["staged.parity"],
            "staged.survival_ratio": _ratio(sum(self.survival), len(self.survival)),
            "staged.interval_calls": calls["staged.interval"],
            "staged.interval_s": total["staged.interval"],
            "staged.interval_self_s": self_s["staged.interval"],
            "staged.interval_exhausted": self.exhausted["staged.interval"],
            "staged.readout_s": total["staged.readout"],
            "greedy.sieve_calls": calls["greedy.sieve"],
            "greedy.sieve_s": total["greedy.sieve"],
            "greedy.sieve_self_s": self_s["greedy.sieve"],
            "greedy.sieve_exhausted": self.exhausted["greedy.sieve"],
            "greedy.radix_calls": calls["greedy.radix"],
            "greedy.radix_s": total["greedy.radix"],
            "greedy.radix_exhausted": self.exhausted["greedy.radix"],
            "greedy.race_calls": calls["greedy.race"],
            "greedy.race_s": total["greedy.race"],
            "greedy.race_self_s": self_s["greedy.race"],
            "greedy.race_key_calls": leaf_n["greedy.race_key"],
            "greedy.race_key_s": leaf_s["greedy.race_key"],
            "greedy.combines": c["combines"],
            "greedy.work": c["work"],
            "recover.calls": calls["recover"],
            "recover.s": total["recover"],
            "recover.self_s": self_s["recover"],
            "recover.attempts": sum(att),
            "recover.first_attempt_share": _ratio(sum(a == 1 for a in att), len(att)),
            "recover.verify_calls": calls["recover.verify"],
            "recover.verify_s": total["recover.verify"],
            "statevec.rho_calls": calls["statevec.rho"],
            "statevec.rho_s": total["statevec.rho"],
            "statevec.rho_self_s": self_s["statevec.rho"],
            "statevec.trace_calls": calls["statevec.trace"],
            "statevec.trace_s": total["statevec.trace"],
            "statevec.qft_calls": calls["statevec.qft"],
            "statevec.qft_s": total["statevec.qft"],
            "harness.table1_s": total["harness.table1"],
            "harness.labels_s": self_s["harness.table1"],
        }
        return {k: float(v) for k, v in m.items()}


def _inside(span, group):
    """Whether an ancestor of span belongs to the same group (so its time
    is already counted in the group's total)."""
    p = span.parent
    while p is not None:
        if p.name == group or (group == "recover" and p.name in RECOVER_SPANS):
            return True
        p = p.parent
    return False


def _ratio(num, den):
    return num / den if den else 0.0


def _unit(name):
    if name.endswith("_s") or name.endswith(".s"):
        return "s", "lower"
    if name.endswith("_share") or name.endswith("_ratio"):
        return "ratio", "higher"
    return "count", "lower"


# metric -> (unit, better): the per_layer list of BENCHMARK.json, which
# ends with the tracing overhead run.py adds
LAYER_METRICS = {name: _unit(name) for name in Tracer().layer_metrics()}
LAYER_METRICS["trace.overhead"] = ("ratio", "lower")

# Per workload, the per-layer metrics the layer map lists as busy there.
# The traced run fails if any of them reads zero.
BUSY = {
    "staged": [
        "oracle.sample_queries", "oracle.verify_queries", "oracle.eval_s",
        "oracle.derived", "phase.sample_calls", "phase.qubits_sampled",
        "phase.sample_s", "phase.combine_calls", "phase.combine_s",
        "phase.observe_calls", "phase.observe_s", "phase.minus_share",
        "staged.match_calls", "staged.match_s", "staged.pairs",
        "staged.parity_calls", "staged.parity_s", "staged.parity_self_s",
        "staged.survival_ratio", "recover.calls", "recover.s",
        "recover.self_s", "recover.attempts", "recover.verify_calls",
        "recover.verify_s"],
    "solvers": [
        "oracle.sample_queries", "oracle.verify_queries", "oracle.eval_s",
        "oracle.derived", "phase.sample_calls", "phase.qubits_sampled",
        "phase.sample_s", "phase.combine_calls", "phase.combine_s",
        "phase.negate_calls", "phase.negate_s", "phase.observe_calls",
        "phase.observe_s", "phase.tomography_s", "phase.minus_share",
        "staged.match_calls", "staged.match_s", "staged.pairs",
        "staged.parity_calls", "staged.parity_s", "staged.parity_self_s",
        "staged.survival_ratio", "staged.interval_calls",
        "staged.interval_s", "staged.interval_self_s", "staged.readout_s",
        "greedy.sieve_calls", "greedy.sieve_s", "greedy.sieve_self_s",
        "greedy.radix_calls", "greedy.radix_s", "greedy.combines",
        "greedy.work", "recover.calls", "recover.s", "recover.self_s",
        "recover.attempts", "recover.verify_calls", "recover.verify_s"],
    "race": [
        "greedy.race_calls", "greedy.race_s", "greedy.race_self_s",
        "greedy.race_key_calls", "greedy.race_key_s", "greedy.combines",
        "greedy.work", "harness.table1_s", "harness.labels_s"],
    "dense": [
        "oracle.verify_queries", "oracle.eval_s", "oracle.derived",
        "statevec.rho_calls", "statevec.rho_s", "statevec.rho_self_s",
        "statevec.trace_calls", "statevec.trace_s", "statevec.qft_calls",
        "statevec.qft_s"],
}


def check_traced(workload, ref, traced):
    """Fail unless the traced run reproduced the untraced run at the same
    seed, its query accounting adds up, and every layer the map lists as
    busy on this workload recorded work."""
    a_recs, b_recs = ref["records"], traced["records"]
    if len(a_recs) != len(b_recs):
        raise CheckFailure(f"{workload}: traced run made {len(b_recs)} trials, "
                           f"untraced {len(a_recs)}")
    for i, (a, b) in enumerate(zip(a_recs, b_recs)):
        for key in ("kind", "secret", "answer", "verified", "attempts", "queries"):
            if a[key] != b[key]:
                raise CheckFailure(f"{workload} trial {i}: traced {key} {b[key]!r} "
                                   f"!= untraced {a[key]!r}")
    layers = traced["layers"]
    total = sum(r["queries"] for r in a_recs)
    if workload == "race":
        counted, what = traced["labels"], "labels fed to cancellation_race"
    else:
        counted = layers["oracle.sample_queries"] + layers["oracle.verify_queries"]
        what = "oracle.sample_queries + oracle.verify_queries"
    if counted != total:
        raise CheckFailure(f"{workload}: {what} = {counted:g}, untraced total "
                           f"queries = {total}")
    idle = [m for m in BUSY[workload] if not layers[m]]
    if idle:
        raise CheckFailure(f"{workload}: busy layer metrics read zero: {idle}")
    # the extraction branch is a fair coin; 6 sigma leaves ~1e-9 false alarms
    n = layers["phase.combine_calls"]
    if n and abs(layers["phase.minus_share"] - 0.5) > 6 * 0.5 / n ** 0.5:
        raise CheckFailure(f"{workload}: phase.minus_share "
                           f"{layers['phase.minus_share']:.5f} over {n:g} "
                           f"combines is not a fair coin")
