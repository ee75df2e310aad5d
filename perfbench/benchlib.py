"""Helpers of the Linear Road benchmark (perfbench/run.py).

Pure functions only, so perfbench/test_benchlib.py can check them without a
build: percentiles with their sample count, trimmed means, golden-output
comparison, and validation of BENCHMARK.json and the names it declares.
"""

import math
import re
import statistics

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH_RE = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")
MAX_BOUND = 0.25
# The percentile reported as a tail must leave at least this many samples
# beyond it, or it is not supported by the sample.
MIN_TAIL_SAMPLES = 10


class Percentile:
    """A percentile of a sample, with the sample's size."""

    def __init__(self, value, n, p):
        self.value = value
        self.n = n
        self.p = p

    @property
    def beyond(self):
        """Samples strictly above the percentile's rank."""
        return self.n - nearest_rank(self.n, self.p)

    @property
    def supported(self):
        return self.n > 0 and self.beyond >= MIN_TAIL_SAMPLES

    def __repr__(self):
        return "p%g=%r (n=%d)" % (self.p, self.value, self.n)


def nearest_rank(n, p):
    """1-based nearest rank of percentile p (0 < p <= 100) among n samples."""
    if not 0 < p <= 100:
        raise ValueError("percentile out of range: %r" % p)
    return max(1, math.ceil(p / 100.0 * n))


def percentile(values, p):
    """Nearest-rank percentile of `values`: an actual sample, so integer
    inputs give exact, comparable results. Empty input gives value None."""
    ordered = sorted(values)
    if not ordered:
        return Percentile(None, 0, p)
    return Percentile(ordered[nearest_rank(len(ordered), p) - 1], len(ordered), p)


def median(values):
    return statistics.median(values)


def trimmed_mean(values, p):
    """Mean of the samples at or below the p-th percentile (nearest rank):
    a centre that a few stalled samples cannot drag, which the median of
    toll responses is not on every workload (it is pinned to the modelled
    no-queueing cost on fig5_ramp)."""
    ordered = sorted(values)
    if not ordered:
        return None
    return statistics.fmean(ordered[:nearest_rank(len(ordered), p)])


def compare_golden(expected, actual):
    """Every key of `expected` must be present in `actual` with an equal
    value. Returns one message per mismatch (empty when they agree)."""
    problems = []
    for key in sorted(expected):
        if key not in actual:
            problems.append("%s: missing (golden %r)" % (key, expected[key]))
        elif actual[key] != expected[key]:
            problems.append("%s: %r != golden %r" % (key, actual[key], expected[key]))
    return problems


def _check_metric(entry, where, with_bound):
    keys = {"name", "unit", "better", "bound"} if with_bound else {"name", "unit", "better"}
    errors = []
    if not isinstance(entry, dict) or set(entry) != keys:
        return ["%s: keys must be exactly %s" % (where, sorted(keys))]
    if not isinstance(entry["name"], str) or not NAME_RE.match(entry["name"]):
        errors.append("%s: bad name %r" % (where, entry["name"]))
    if not isinstance(entry["unit"], str) or not UNIT_RE.match(entry["unit"]):
        errors.append("%s: bad unit %r" % (where, entry["unit"]))
    if entry["better"] not in ("lower", "higher"):
        errors.append("%s: better must be lower or higher" % where)
    if with_bound:
        bound = entry["bound"]
        if isinstance(bound, bool) or not isinstance(bound, (int, float)) or not 0 < bound <= MAX_BOUND:
            errors.append("%s: bound must be in (0, %g]" % (where, MAX_BOUND))
    return errors


def validate_benchmark(doc):
    """Check a BENCHMARK.json document against the benchmark contract.
    Returns a list of problems (empty when valid)."""
    required = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if not isinstance(doc, dict) or set(doc) != required:
        return ["top-level keys must be exactly %s" % sorted(required)]
    errors = []
    command = doc["command"]
    if (not isinstance(command, list) or not 1 <= len(command) <= 32
            or not all(isinstance(c, str) and 0 < len(c) <= 200 for c in command)):
        errors.append("command: 1-32 strings of at most 200 characters")
    elif any(c.startswith("/") or ".." in c.split("/") for c in command):
        errors.append("command: no absolute paths or '..'")
    paths = doc["paths"]
    if not isinstance(paths, list) or not 1 <= len(paths) <= 16:
        errors.append("paths: 1-16 directories")
    else:
        for p in paths:
            if not isinstance(p, str) or not PATH_RE.match(p) or p.startswith("/") or ".." in p.split("/"):
                errors.append("paths: bad path %r" % (p,))
    seconds = doc["run_seconds"]
    if isinstance(seconds, bool) or not isinstance(seconds, int) or not 1 <= seconds <= 60:
        errors.append("run_seconds: whole number in [1, 60]")
    workloads = doc["workloads"]
    if not isinstance(workloads, list) or not 2 <= len(workloads) <= 8:
        errors.append("workloads: 2-8 entries")
        workloads = []
    for i, w in enumerate(workloads):
        where = "workloads[%d]" % i
        if not isinstance(w, dict) or set(w) != {"name", "why"}:
            errors.append("%s: keys must be exactly ['name', 'why']" % where)
            continue
        if not isinstance(w["name"], str) or not NAME_RE.match(w["name"]):
            errors.append("%s: bad name %r" % (where, w["name"]))
        why = w["why"]
        if not isinstance(why, str) or not why or len(why) > 200 or "\n" in why:
            errors.append("%s: why must be one line of at most 200 characters" % where)
    names = [w.get("name") for w in workloads if isinstance(w, dict)]
    for kind, low, high, with_bound in (("end_to_end", 1, 16, True), ("per_layer", 1, 128, False)):
        entries = doc[kind]
        if not isinstance(entries, list) or not low <= len(entries) <= high:
            errors.append("%s: %d-%d entries" % (kind, low, high))
            continue
        for i, entry in enumerate(entries):
            errors.extend(_check_metric(entry, "%s[%d]" % (kind, i), with_bound))
        names.extend(e.get("name") for e in entries if isinstance(e, dict))
    dupes = sorted({n for n in names if names.count(n) > 1 and n is not None})
    if dupes:
        errors.append("names used more than once: %s" % dupes)
    setup = [e for e in doc["end_to_end"] if isinstance(e, dict) and e.get("name") == "setup_s"] \
        if isinstance(doc["end_to_end"], list) else []
    if not setup or setup[0].get("unit") != "s" or setup[0].get("better") != "lower":
        errors.append("end_to_end: needs setup_s with unit s and better lower")
    return errors


def check_declared(declared, produced, kind):
    """The metrics a run produces must be exactly the ones BENCHMARK.json
    declares for that kind of run."""
    missing = sorted(set(declared) - set(produced))
    extra = sorted(set(produced) - set(declared))
    problems = []
    if missing:
        problems.append("%s metrics declared but not produced: %s" % (kind, missing))
    if extra:
        problems.append("%s metrics produced but not declared: %s" % (kind, extra))
    return problems
