"""Pure functions of the repository benchmark: request mixes, the
percentile rule and the SimTimeline layer arithmetic. run.py does the
I/O; test_analysis.py checks these."""

import math
import random
import statistics

# The percentiles a timing may be reported at, lowest first.
PERCENTILES = (50, 90, 99, 99.9, 99.99)


def rank(n, p):
    """1-based nearest rank of percentile p (0-100] among n samples;
    the epsilon keeps 99.9 / 100 * 10000 from rounding up past 9990."""
    return min(n, max(1, math.ceil(p * n / 100 - 1e-9)))


def percentile(values, p):
    """Nearest-rank percentile p of a non-empty list."""
    return sorted(values)[rank(len(values), p) - 1]


def beyond(n, p):
    """Samples strictly above the nearest-rank p-th percentile of n."""
    return n - rank(n, p)


def tail_percentile(n, cap=None):
    """The highest of PERCENTILES with at least ten of n samples beyond
    it, no higher than cap; the median when none qualifies."""
    best = 50
    for p in PERCENTILES:
        if (cap is None or p <= cap) and beyond(n, p) >= 10:
            best = p
    return best


def summarize(values, cap=None):
    """Median and the tail percentile of a timing, with its count."""
    p = tail_percentile(len(values), cap)
    return {"n": len(values), "p50": percentile(values, 50),
            "tail_p": p, "tail": percentile(values, p)}


# ------------------------------------------------------------ request mixes

def single_request(bench, core):
    return {"kind": "single", "bench": bench, "core": core}


def contest_request(bench, a, b):
    return {"kind": "contest", "bench": bench, "cores": [a, b]}


def hot_keys():
    """contest_load's default key space: four benchmarks on their four
    cores, alone (16 keys) and in every ordered 2-way contest (48)."""
    names = ["gcc", "twolf", "crafty", "vortex"]
    singles = [single_request(b, c) for b in names for c in names]
    contests = [contest_request(b, x, y)
                for b in names for x in names for y in names if x != y]
    return singles + contests


def hot_preload_order(seed):
    """Every hot key once, in a seeded order."""
    order = list(range(len(hot_keys())))
    random.Random(seed).shuffle(order)
    return order


def hot_sequence(seed, count, contest_fraction=0.25):
    """count draws from hot_keys(): a contest with contest_fraction,
    else a single, uniformly within each kind (contest_load's mix)."""
    rng = random.Random(seed)
    seq = []
    for _ in range(count):
        if rng.random() < contest_fraction:
            seq.append(16 + rng.randrange(48))
        else:
            seq.append(rng.randrange(16))
    return seq


def mixed_keys(benches, cores):
    """Every single (bench, core) and every ordered 2-way contest."""
    keys = [single_request(b, c) for b in benches for c in cores]
    keys += [contest_request(b, x, y)
             for b in benches for x in cores for y in cores if x != y]
    return keys


class Zipfian:
    """YCSB's zipfian generator (Gray et al., "Quickly generating
    billion-record synthetic databases"): item i of n is drawn with
    probability proportional to 1 / (i + 1) ** theta."""

    def __init__(self, n, theta, rng):
        self.n = n
        self.theta = theta
        self.rng = rng
        self.zetan = sum(1.0 / (i ** theta) for i in range(1, n + 1))
        zeta2 = 1.0 + 0.5 ** theta
        self.alpha = 1.0 / (1.0 - theta)
        self.eta = ((1.0 - (2.0 / n) ** (1.0 - theta))
                    / (1.0 - zeta2 / self.zetan))

    def next(self):
        u = self.rng.random()
        uz = u * self.zetan
        if uz < 1.0:
            return 0
        if uz < 1.0 + 0.5 ** self.theta:
            return 1
        rank = int(self.n * (self.eta * u - self.eta + 1.0) ** self.alpha)
        return min(rank, self.n - 1)


def mixed_sequence(seed, n_keys, count, theta=0.99):
    """count zipfian draws over n_keys; the seed also permutes which key
    holds which popularity rank, so each seed has its own hot set."""
    rng = random.Random(seed)
    order = list(range(n_keys))
    rng.shuffle(order)
    zipf = Zipfian(n_keys, theta, rng)
    return [order[zipf.next()] for _ in range(count)]


def first_seen_share(seq):
    """Share of requests whose key had not been requested before."""
    return len(set(seq)) / len(seq)


# ------------------------------------------------------------ SimTimeline

def _ns_per_inst(span, trace_len):
    return (span["end_sec"] - span["start_sec"]) * 1e9 / trace_len


def timeline_layers(timeline, trace_len):
    """Per-layer figures of one SimTimeline.json document.

    Every simulated span (disk hits excluded) ran a trace of trace_len
    instructions. The contest overhead of a 2-way contest "b@x+y" is
    its ns/instruction minus those of the single spans "b@x" and "b@y"
    of the same timeline; the median over contests is reported.
    Contests of one label under different contest configurations are
    separate spans and each counts."""
    simulated = [s for s in timeline["spans"] if not s["cached"]]
    single = {s["label"]: _ns_per_inst(s, trace_len)
              for s in simulated if s["kind"] == "single"}
    contest = [(s["label"], _ns_per_inst(s, trace_len))
               for s in simulated if s["kind"] == "contest"]
    overheads = []
    for label, ns in contest:
        bench, cores = label.split("@", 1)
        parts = cores.split("+")
        alone = [single.get(bench + "@" + c) for c in parts]
        if len(parts) == 2 and None not in alone:
            overheads.append(ns - sum(alone))

    def busy(kind):
        return sum(s["end_sec"] - s["start_sec"]
                   for s in simulated if s["kind"] == kind)

    return {
        "single_ns": list(single.values()),
        "contest_ns": [ns for _, ns in contest],
        "single_busy_s": busy("single"),
        "contest_busy_s": busy("contest"),
        "overhead_ns": (statistics.median(overheads)
                        if overheads else float("nan")),
        "overhead_pairs": len(overheads),
        "concurrency": timeline["concurrency"],
        "queue_s": timeline["queue_sec"],
        "minst_per_s": (len(simulated) * trace_len / 1e6
                        / (busy("single") + busy("contest"))),
    }
