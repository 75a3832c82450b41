"""The four benchmark workloads: seeded inputs, one timed trial each, and
the output checks that make a wrong answer an error.

Every call into the library goes through an attribute of the `dhsieve`
package looked up at call time, so the tracer's wrappers (installed on
every module binding) see it.  The library receives only the instances
and a seeded generator; the planted secrets are drawn here, from the
benchmark seed, and never passed to it.

A run measures a fixed number of trials: `trial_count` sizes it from
`--seconds` and the per-trial cost measured at the commit that defined
the benchmark.  A fixed count is what makes the query counts, the
failure rate and `alpha_mean` repeat exactly at a given seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

import dhsieve as ds
from calibration import scaled
from dhsieve.errors import NoHiddenReflectionError

STAGED_N = 20
RACE_BUDGET = 3 ** 8
RACE_LABEL_BITS = 96
DENSE_N = 40
DENSE_TOL = 1e-9
# One round of the solvers workload; each entry is one trial.
SOLVERS_ROUND = ("general4095", "general360", "radix", "abelian", "abelian",
                 "substring", "general360", "radix", "abelian", "abelian",
                 "substring")
ABELIAN_ORDERS = (16, 9)
RADIX_R, RADIX_N = 3, 8
SUBSTRING_N = 256


class CheckFailure(Exception):
    """The program returned a wrong answer, or a traced run disagreed
    with the untraced one."""


@dataclass
class Workload:
    name: str
    wid: int            # stable id mixed into the seed
    nominal_s: float    # seconds per trial at the defining commit
    block: int = 1      # trial count is a multiple of this

    def trial_count(self, seconds):
        blocks = max(1, round(seconds / (self.nominal_s * self.block)))
        return blocks * self.block


WORKLOADS = {
    "staged": Workload("staged", 1, 1.85),
    "solvers": Workload("solvers", 2, 1.75 / len(SOLVERS_ROUND),
                        block=len(SOLVERS_ROUND)),
    "race": Workload("race", 3, 0.25),
    "dense": Workload("dense", 4, 0.18),
}


def rngs(seed, wid, i):
    """(secret generator, library generator) for trial i."""
    return (np.random.default_rng([seed, wid, i, 0]),
            np.random.default_rng([seed, wid, i, 1]))


# ---------------------------------------------------------------------------
# Inputs


def plan(name, seed, seconds):
    """Build every trial's instance, secret and generator (set-up work)."""
    wl = WORKLOADS[name]
    specs = []
    for i in range(wl.trial_count(seconds)):
        srng, rng = rngs(seed, wl.wid, i)
        kind = SOLVERS_ROUND[i % len(SOLVERS_ROUND)] if name == "solvers" else name
        specs.append(_make_spec(kind, srng, rng))
    return specs


def _make_spec(kind, srng, rng):
    spec = {"kind": kind, "rng": rng}
    if kind == "staged":
        s = int(srng.integers(0, 1 << STAGED_N))
        spec.update(secret=s, inst=ds.make_reflection_oracle(
            ds.GroupCtx(1 << STAGED_N), s))
    elif kind.startswith("general"):
        N = int(kind[len("general"):])
        s = int(srng.integers(0, N))
        spec.update(secret=s, inst=ds.make_reflection_oracle(ds.GroupCtx(N), s))
    elif kind == "radix":
        N = RADIX_R ** RADIX_N
        s = int(srng.integers(0, N))
        spec.update(secret=s, inst=ds.make_reflection_oracle(ds.GroupCtx(N), s))
    elif kind == "abelian":
        s = tuple(int(srng.integers(0, n)) for n in ABELIAN_ORDERS)
        spec.update(secret=s, inst=ds.make_shift_pair(
            ds.AbelianGroupSpec(ABELIAN_ORDERS), s))
    elif kind == "substring":
        s = int(srng.integers(0, SUBSTRING_N))
        spec.update(secret=s, inst=ds.SubstringInstance(SUBSTRING_N, s))
    elif kind == "dense":
        s = int(srng.integers(0, DENSE_N))
        spec.update(secret=s, inst=ds.SubstringInstance(DENSE_N, s))
    elif kind == "race":
        spec.update(secret=None, inst=None)
    else:
        raise ValueError(f"unknown trial kind {kind!r}")
    return spec


def warm_up(name):
    """Small untimed run of the same code paths (imports, lazy set-up)."""
    rng = np.random.default_rng(12345)
    if name == "staged":
        ds.recover_slope_power2(ds.make_reflection_oracle(ds.GroupCtx(1 << 10), 77),
                                10, rng=rng)
    elif name == "solvers":
        ds.solve_abelian_shift(ds.make_shift_pair(
            ds.AbelianGroupSpec(ABELIAN_ORDERS), (3, 4)), rng=rng)
        ds.recover_slope_general(ds.make_reflection_oracle(ds.GroupCtx(45), 7),
                                 rng=rng)
    elif name == "race":
        ds.run_table1([3 ** 5], trials=1, rng=rng)
    elif name == "dense":
        _dense_law(ds.SubstringInstance(8, 3), 8, 3)


# ---------------------------------------------------------------------------
# One trial


def run_trial(spec):
    """Run one trial; returns its record (without timing).  Queries are
    read from the oracle's own counter, also when the trial failed."""
    kind, inst, rng = spec["kind"], spec["inst"], spec["rng"]
    rec = {"kind": kind, "secret": spec["secret"], "answer": None,
           "verified": False, "attempts": None}
    if kind == "race":
        row = ds.run_table1([RACE_BUDGET], trials=1, r=2,
                            n_labels=RACE_LABEL_BITS, rng=rng)[0]
        rec.update(answer=row.mean, verified=True, queries=row.queries)
        return rec
    if kind == "dense":
        worst, law, exact_queries = _dense_law(inst, DENSE_N, spec["secret"])
        rec.update(answer=worst, law=law, verified=True,
                   queries=inst.queries + exact_queries)
        return rec
    try:
        if kind == "staged":
            got, rep = ds.recover_slope_power2(inst, STAGED_N, rng=rng)
        elif kind.startswith("general"):
            got, rep = ds.recover_slope_general(inst, rng=rng)
        elif kind == "radix":
            got, rep = ds.recover_slope_radix(inst, RADIX_R, RADIX_N, rng=rng)
        elif kind == "abelian":
            got, rep = ds.solve_abelian_shift(inst, rng=rng)
        else:
            got, rep = ds.solve_substring(inst, rng=rng)
        rec.update(answer=got, verified=True, attempts=rep.attempts)
    except NoHiddenReflectionError:
        pass
    finally:
        rec["queries"] = inst.queries
    return rec


def _dense_law(inst, N, s):
    """test_06's spliced trace-distance law for one slope s: every guess
    t, the exact rho cached per distance, and one qft_joint_law(N, s).
    Oracles are read through `evaluate`, so their counters hold the
    hiding-function evaluations."""
    exact, exact_oracles = {}, []
    worst = 0.0
    for t in range(N):
        spliced = ds.statevec.rho_from_eval(N, ds.splice_substring(inst, t).evaluate)
        d = (s - t) % N
        if d not in exact:
            o = ds.make_reflection_oracle(ds.GroupCtx(N), d)
            exact_oracles.append(o)
            exact[d] = ds.statevec.rho_from_eval(N, o.evaluate)
        td = ds.statevec.trace_distance(spliced, exact[d])
        worst = max(worst, abs(2 * td - abs(s - t) / N))
    law = ds.statevec.qft_joint_law(N, s)
    return worst, law, sum(o.queries for o in exact_oracles)


# ---------------------------------------------------------------------------
# Output checks


def check_trial(rec):
    """Raise CheckFailure on a wrong answer.  A trial that raised
    NoHiddenReflectionError is a failure, counted in failure_rate, and is
    not checked here."""
    kind = rec["kind"]
    if kind == "dense":
        check_dense(rec["secret"], rec["answer"], rec["law"])
    elif kind == "race":
        alpha = rec["answer"]
        if not (alpha == int(alpha) and 0 <= alpha <= RACE_LABEL_BITS):
            raise CheckFailure(f"race reached alpha {alpha}, outside "
                               f"0..{RACE_LABEL_BITS}")
    elif rec["verified"] and rec["answer"] != rec["secret"]:
        raise CheckFailure(f"{kind}: returned {rec['answer']!r}, planted "
                           f"{rec['secret']!r}")


def check_dense(s, worst, law, N=DENSE_N):
    """The criterion-6 gate and the closed form of the QFT joint law."""
    if not worst <= DENSE_TOL:
        raise CheckFailure(f"dense s={s}: worst |2 TD - |s-t|/N| = "
                           f"{worst:.3e} > {DENSE_TOL}")
    k = np.arange(N)
    cos2 = np.cos(np.pi * k * s / N) ** 2 / N
    expect = np.stack([cos2, 1.0 / N - cos2], axis=1)
    err = float(np.max(np.abs(np.asarray(law) - expect)))
    if not err <= DENSE_TOL:
        raise CheckFailure(f"dense s={s}: qft_joint_law differs from "
                           f"cos^2(pi k s/N)/N by {err:.3e} > {DENSE_TOL}")


def summary(records):
    """End-to-end figures of a list of trial records; times in reference
    seconds (calibration.py), raw seconds alongside."""
    raw = [r["seconds"] for r in records]
    times = sorted(scaled(r["seconds"], r["cal"]) for r in records)
    n = len(times)
    out = {
        "wall_s": sum(times),
        "raw_wall_s": sum(raw),
        "raw_trial_s_p50": float(np.median(raw)),
        "kernel_s": float(np.median([r["cal"] for r in records])),
        "trial_s_p50": float(np.median(times)),
        "queries_per_trial": sum(r["queries"] for r in records) / n,
        "failure_rate": sum(not r["verified"] for r in records) / n,
    }
    tail = tail_percentile(n)
    if tail is not None:
        out["trial_s_tail"] = float(np.percentile(times, tail))
        out["trial_s_tail_pct"] = tail
    if records[0]["kind"] == "race":
        out["alpha_mean"] = sum(r["answer"] for r in records) / n
    return out


def tail_percentile(n, beyond=10):
    """Highest whole percentile with at least `beyond` trials above it,
    or None when the trial count is too small to leave a tail above the
    median."""
    pct = math.floor(100 * (n - beyond) / n) if n > 0 else 0
    return pct if pct > 50 else None
