"""Compare two result sets of the end-to-end benchmark.

    python3 e2ebench/run.py compare old.jsonl new.jsonl [--allow-host-mismatch]

Each file holds the JSONL records a run appends with `--out`. Every
(workload, end-to-end metric) pair is classified with the pair rule and
the quartile spread, against the metric's bound in `BENCHMARK.json`:

* better: the new set wins at least nine tenths of the pairs (i-th old
  run against i-th new run, ties counting for neither) and the medians
  differ, in the better direction, by more than the old set's
  interquartile distance;
* unresolved: otherwise, when either set's spread (IQR over median) is
  wider than the bound, unless every new run reads better than every
  old run;
* worse: otherwise, when the new median is worse than the old one by
  more than the bound (a share of the old median);
* within bound: everything else.

Runs whose correctness checks failed are left out of the values. A
workload whose new set has more failed runs than its old set can not be
better (its "better" becomes unresolved), and any failed new run makes
the exit status 1, as does any worse pair.
"""

import json
import statistics

BETTER, WORSE, WITHIN, UNRESOLVED = "better", "WORSE", "within bound", "unresolved"

# The host fields that must agree for two results to be comparable:
# everything except the code identity and the seed.
MACHINE_FIELDS = ("nproc", "cpu_model", "rustc", "rayon_threads", "daemons")


def quartiles(xs):
    """(q1, q2, q3) as `statistics.quantiles(xs, n=4)`; one sample is its own."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    return tuple(statistics.quantiles(xs, n=4))


def spread(xs):
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(xs)
    if q2 == 0:
        return 0.0 if q3 == q1 else float("inf")
    return (q3 - q1) / abs(q2)


def classify(old, new, bound, higher_is_better):
    """Verdict for `new` against `old` (both non-empty lists of values)."""
    s = 1.0 if higher_is_better else -1.0
    m_old, m_new = statistics.median(old), statistics.median(new)
    pairs = list(zip(old, new))
    wins = sum(1 for o, n in pairs if s * (n - o) > 0)
    q1, _, q3 = quartiles(old)
    if pairs and wins * 10 >= 9 * len(pairs) and s * (m_new - m_old) > q3 - q1:
        return BETTER
    if max(spread(old), spread(new)) > bound:
        if all(s * (n - o) > 0 for o in old for n in new):
            return WITHIN
        return UNRESOLVED
    if s * (m_old - m_new) > bound * abs(m_old):
        return WORSE
    return WITHIN


def parse_records(text):
    """The measured-run records of a JSONL result set (traced ones skipped)."""
    out = []
    for i, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        rec = json.loads(line)
        if rec.get("trace"):
            continue
        if not all(k in rec for k in ("workload", "correct", "metrics", "host")):
            raise ValueError(f"line {i}: not a result record")
        out.append(rec)
    return out


def machine_key(rec):
    host = rec["host"]
    return " ".join(f"{k}={host.get(k)}" for k in MACHINE_FIELDS)


def compare(spec, old, new, allow_host_mismatch=False):
    """Classify every (workload, metric) pair; one dict per line.

    `spec` is the `end_to_end` list of `BENCHMARK.json`. Raises
    ValueError when one workload's records name different machines,
    unless `allow_host_mismatch`.
    """
    workloads = sorted({r["workload"] for r in old})
    for w in workloads:
        keys = sorted({machine_key(r) for r in old + new if r["workload"] == w})
        if len(keys) > 1 and not allow_host_mismatch:
            raise ValueError(
                f"{w}: result sets come from different hosts ({' | '.join(keys)}); "
                "pass --allow-host-mismatch to compare anyway"
            )
    lines = []
    for w in workloads:
        failed_old = sum(1 for r in old if r["workload"] == w and not r["correct"])
        failed_new = sum(1 for r in new if r["workload"] == w and not r["correct"])
        for m in spec:
            def values(recs):
                return [
                    r["metrics"][m["name"]]["value"]
                    for r in recs
                    if r["workload"] == w and r["correct"] and m["name"] in r["metrics"]
                ]

            o, n = values(old), values(new)
            if not o or not n:
                continue
            verdict = classify(o, n, m["bound"], m["better"] == "higher")
            if verdict == BETTER and failed_new > failed_old:
                verdict = UNRESOLVED
            lines.append(
                {
                    "workload": w,
                    "metric": m["name"],
                    "old": o,
                    "new": n,
                    "verdict": verdict,
                    "failed_old": failed_old,
                    "failed_new": failed_new,
                }
            )
    return lines


def render(lines, old, new):
    def num(x):
        return f"{x:.3e}" if abs(x) < 0.1 else f"{x:.4f}"

    def cell(xs):
        q1, q2, q3 = quartiles(xs)
        return f"{num(q2)} [{num(q1)}, {num(q3)}] ({len(xs)})"

    out = [
        f"{'workload':<18} {'metric':<16} {'old median [q1, q3] (n)':>40} "
        f"{'new median [q1, q3] (n)':>40} {'change':>8}  verdict"
    ]
    for l in lines:
        change = 100.0 * (statistics.median(l["new"]) / statistics.median(l["old"]) - 1.0)
        out.append(
            f"{l['workload']:<18} {l['metric']:<16} {cell(l['old']):>40} "
            f"{cell(l['new']):>40} {change:>+7.2f}%  {l['verdict']}"
        )
    for label, recs in (("old", old), ("new", new)):
        bad = sum(1 for r in recs if not r["correct"])
        if bad:
            out.append(f"{label}: {bad} runs failed a correctness check (left out)")
    return "\n".join(out) + "\n"


def exit_status(lines, new):
    """1 when a pair is worse or a new run failed its checks, else 0."""
    if any(l["verdict"] == WORSE for l in lines):
        return 1
    return 1 if any(not r["correct"] for r in new) else 0


def main(argv, spec_path):
    """`compare` subcommand; returns the exit status."""
    allow = "--allow-host-mismatch" in argv
    files = [a for a in argv if a != "--allow-host-mismatch"]
    if len(files) != 2:
        print("usage: run.py compare <old.jsonl> <new.jsonl> [--allow-host-mismatch]")
        return 2
    try:
        with open(spec_path) as f:
            spec = json.load(f)["end_to_end"]
        sets = []
        for path in files:
            with open(path) as f:
                sets.append(parse_records(f.read()))
        old, new = sets
        lines = compare(spec, old, new, allow)
    except (OSError, ValueError, KeyError) as e:
        print(f"compare: {e}")
        return 2
    print(render(lines, old, new), end="")
    return exit_status(lines, new)
