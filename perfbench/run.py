#!/usr/bin/env python3
"""Served-path benchmark of `nvdb serve`.

Run from the root of a checkout:

    python3 perfbench/run.py --workload smallbank-closed --seed 1 --seconds 10 --trace 0

It builds `nvdb` and the benchmark's OCaml half from source, starts
`nvdb serve` as it ships (pinned to one CPU), drives it from one
generator process over two Unix-socket connections (pinned to another
CPU), checks the answers, and prints one JSON object as the last line
of standard output. `--trace 0` reports the end-to-end metrics;
`--trace 1` reports the per-layer metrics of one served run plus the
in-process traced pass. See perfbench/README.md for the workloads and
for what each metric means.

Exit status: 0 with a result. 1 when the build fails (nothing is
printed) or when a process or a correctness check fails: then the
result line says "correct": false and carries no metrics.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from statistics import median

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from measure import (parse_cpu_ticks, parse_io, parse_stat, parse_vmhwm_kib,  # noqa: E402
                     percentile, quiet_half)

NVDB = os.path.join("_build", "default", "bin", "nvdb.exe")
PERFBENCH = os.path.join("_build", "default", "perfbench", "ocaml", "perfbench.exe")
WORK = os.path.join("perfbench", ".work")
SOCKET = "nvdb.sock"  # relative to WORK: keeps the path short
JOURNAL = "nvdb.journal"
RUN_BUDGET_S = 170  # a run must end within 180 s of its build

# A run makes rounds, each on a freshly started server, until its
# rounds have taken `measure_s` x --seconds / 10 seconds of wall time:
# it starts another round while the last one would still fit, and
# always makes `min_rounds` and at most `max_rounds`. A slow host thus
# gets fewer rounds, not a longer run. The size of a round scales with
# --seconds: closed loops send `round_txns_per_s` x --seconds calls per
# round; an open-loop round lasts `round_s` x --seconds / 10 seconds.
# Sizes were chosen on a 2-CPU host; README.md has the reasons.
WORKLOADS = {
    "smallbank-closed": {
        "nvdb": ["-w", "smallbank", "-c", "high"],
        "gen": ["--workload", "smallbank", "--contention", "high"],
        "mode": "closed",
        "round_txns_per_s": 6_000,
        "measure_s": 55.0,
        "min_rounds": 5,
        "max_rounds": 80,
        "slo_ms": 50.0,
    },
    "ycsb-durable": {
        "nvdb": ["-w", "ycsb", "--journal", JOURNAL, "--checkpoint-every", "8"],
        "gen": ["--workload", "ycsb"],
        "mode": "closed",
        "round_txns_per_s": 700,
        "measure_s": 70.0,
        "min_rounds": 2,
        "max_rounds": 6,
        "checkpoint_every": 8,
        "slo_ms": 1000.0,
    },
    # Runnable, but not in BENCHMARK.json: its latencies follow the
    # host's CPU steal far more than its bounds allow (README.md,
    # "Dropped workload").
    "ycsb-open": {
        "nvdb": ["-w", "ycsb"],
        "gen": ["--workload", "ycsb"],
        "mode": "open",
        "rate": 1000.0,
        "stats_every": 5.0,
        "round_s": 5.0,
        "measure_s": 45.0,
        "min_rounds": 3,
        "max_rounds": 8,
        "slo_ms": 50.0,
    },
}


def round_size(w, seconds):
    """The generator arguments that size one round."""
    if w["mode"] == "open":
        return ["--rate", str(w["rate"]), "--duration", str(w["round_s"] * seconds / 10),
                "--stats-every", str(w["stats_every"])]
    return ["--txns", str(int(w["round_txns_per_s"] * seconds))]


class RunFailed(Exception):
    pass


DEADLINE = [0.0]  # time.monotonic() by which the run gives up


def remaining():
    left = DEADLINE[0] - time.monotonic()
    if left <= 1:
        raise RunFailed("out of time")
    return left


# Calls sent and calls committed or aborted so far in this run, so a
# run that fails a check still reports what it attempted.
TALLY = {"attempted": 0, "ok": 0}


def count(result):
    TALLY["attempted"] += result["sent"]
    TALLY["ok"] += result["committed"] + result["aborted"]


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def cpus():
    """Two distinct CPUs for server and generator when the host has them."""
    mine = sorted(os.sched_getaffinity(0))
    return mine[0], mine[1] if len(mine) > 1 else mine[0]


def pinned(cpu):
    return lambda: os.sched_setaffinity(0, {cpu})


def build():
    if shutil.which("dune") is None:
        raise RunFailed("dune not found")
    # No shared dune cache: the build reads and writes inside the checkout.
    r = subprocess.run(
        ["dune", "build", "--root", ".", "./bin/nvdb.exe", "./perfbench/ocaml/perfbench.exe"],
        stdout=sys.stderr,
        stderr=sys.stderr,
        timeout=850,
        env=dict(os.environ, DUNE_CACHE="disabled"),
    )
    if r.returncode != 0:
        raise RunFailed("build failed")


class Server:
    """One `nvdb serve` process in the work directory."""

    def __init__(self, args, cpu, tag):
        path = os.path.join(WORK, SOCKET)
        if os.path.exists(path):
            os.remove(path)
        self.log = open(os.path.join(WORK, "serve-%s.log" % tag), "w")
        self.t0_ns = time.monotonic_ns()
        self.proc = subprocess.Popen(
            [os.path.abspath(NVDB), "serve", *args, "--listen", SOCKET],
            cwd=WORK,
            stdout=self.log,
            stderr=subprocess.STDOUT,
            preexec_fn=pinned(cpu),
        )

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=30)
        self.log.close()


def generate(server, cpu, tag, extra):
    out = os.path.join(WORK, "gen-%s.json" % tag)
    left = remaining()
    cmd = [
        os.path.abspath(PERFBENCH), "gen", "--socket", SOCKET,
        "--t0-ns", str(server.t0_ns), "--server-pid", str(server.proc.pid),
        "--timeout", str(left - 1), "--out", os.path.basename(out), *extra,
    ]
    r = subprocess.run(cmd, cwd=WORK, preexec_fn=pinned(cpu), timeout=left)
    if r.returncode != 0 or not os.path.exists(out):
        raise RunFailed("generator failed (%s)" % tag)
    with open(out) as f:
        g = json.load(f)
    if "hello_ok_s" not in g:
        raise RunFailed("no Hello_ok (%s)" % tag)
    return g


def traffic_args(w, seed, seconds):
    return [*w["gen"], "--seed", str(seed), "--mode", w["mode"], *round_size(w, seconds)]


def check_round(g, tag):
    """The correctness gate of one served round."""
    answered = g["committed"] + g["aborted"] + g["rejected"]
    if answered != g["sent"] or g["missing"] != 0:
        raise RunFailed("%s: %d sent, %d answered, %d missing"
                        % (tag, g["sent"], answered, g["missing"]))
    if g["duplicates"] != 0 or g["protocol_errors"] != 0:
        raise RunFailed("%s: %d duplicates, %d protocol errors"
                        % (tag, g["duplicates"], g["protocol_errors"]))
    if "server_stats" not in g:
        raise RunFailed("%s: no final Stats answer" % tag)
    server_errors = json.loads(g["server_stats"])["protocol_errors"]
    if server_errors != 0:
        raise RunFailed("%s: server counted %d protocol errors" % (tag, server_errors))
    if len(g["digests"]) != 2 or len(set(g["digests"])) != 1:
        raise RunFailed("%s: Bye_ok digests %r" % (tag, g["digests"]))


def served_round(name, w, seed, seconds, r, cpu_server, cpu_gen):
    """Set up a server, drive the workload, close the sessions, kill it,
    and time the restart (replaying the journal, when there is one)."""
    tag = "%s-%d" % (name, r)
    journal = os.path.join(WORK, JOURNAL)
    for p in (journal, journal + ".ckpt"):
        if os.path.exists(p):
            os.remove(p)
    server = Server(w["nvdb"], cpu_server, tag)
    try:
        g = generate(server, cpu_gen, tag, traffic_args(w, seed, seconds))
    finally:
        server.kill()
    count(g)
    check_round(g, tag)
    g["steal"] = window_steal(g)
    # Restart after kill -9. With a journal the server replays it; the
    # state must then be exactly the state the last Bye_ok reported.
    restart_args = w["nvdb"] + (["--recover"] if "--journal" in w["nvdb"] else [])
    server = Server(restart_args, cpu_server, tag + "-restart")
    try:
        p = generate(server, cpu_gen, tag + "-restart", ["--mode", "probe", *w["gen"]])
    finally:
        server.kill()
    if "--journal" in w["nvdb"] and p.get("digests") != g["digests"][-1:]:
        raise RunFailed("%s: state after recovery %r, before the kill %r"
                        % (tag, p.get("digests"), g["digests"][-1:]))
    g["recovery_s"] = p["hello_ok_s"]
    return g


def window_steal(g):
    """Share of the host's CPU time stolen by other guests over a
    round's measured window, from the generator's /proc/stat readings."""
    steal0, total0 = parse_cpu_ticks(g["proc_start"]["host"])
    steal1, total1 = parse_cpu_ticks(g["proc_end"]["host"])
    return (steal1 - steal0) / max(total1 - total0, 1)


def served_rounds(name, w, seed, seconds, cpu_server, cpu_gen):
    """The rounds of a --trace 0 run, within its measuring time."""
    budget = w["measure_s"] * seconds / 10
    t0 = time.monotonic()
    rounds, last = [], 0.0
    while len(rounds) < w["max_rounds"]:
        used = time.monotonic() - t0
        if len(rounds) >= w["min_rounds"] and used + last > budget:
            break
        r = len(rounds)
        rounds.append(served_round(name, w, call_seed(seed, r), seconds, r,
                                   cpu_server, cpu_gen))
        last = time.monotonic() - t0 - used
    log("%d rounds in %.1f s" % (len(rounds), time.monotonic() - t0))
    return rounds


def server_layer(g):
    """Per-layer metrics of the server process over the measured window,
    from its /proc readings."""
    answered = g["committed"] + g["aborted"]
    u0, s0 = parse_stat(g["proc_start"]["stat"])
    u1, s1 = parse_stat(g["proc_end"]["stat"])
    io0, io1 = parse_io(g["proc_start"]["io"]), parse_io(g["proc_end"]["io"])
    ticks = os.sysconf("SC_CLK_TCK")
    cpu = (u1 - u0) + (s1 - s0)
    return {
        "server.cpu_us_per_txn": cpu / ticks * 1e6 / answered,
        "server.sys_share": (s1 - s0) / cpu if cpu else 0.0,
        "server.read_calls_per_txn": (io1["syscr"] - io0["syscr"]) / answered,
        "server.write_calls_per_txn": (io1["syscw"] - io0["syscw"]) / answered,
        "server.write_bytes_per_txn": (io1["wchar"] - io0["wchar"]) / answered,
    }


def end_to_end(w, rounds):
    """The run's end-to-end metrics. What a round measures inside its
    window (throughput, exact percentiles over the round's raw samples,
    the SLO share, the open loop's monitor polls) is reported as the
    median over the quieter half of the rounds: those with the least
    host steal (CPU time the hypervisor gave to other guests) over the
    window. A round that suffers steal times the host's scheduler more
    than the program (README.md, "Steadiness"). What a round measures
    outside its window (set-up, restart, session close, the closed
    loops' post-window poll, peak RSS) and `ok_ratio` count every round."""
    sent = sum(g["sent"] for g in rounds)
    ok = sum(g["committed"] + g["aborted"] for g in rounds)
    quiet = quiet_half(rounds, key=lambda g: g["steal"])
    if w["mode"] == "open":
        stats = [x for g in quiet for x in g["stats_ms"]]
    else:
        stats = [x for g in rounds for x in g["post_stats_ms"]]
    m = {
        "throughput_txn_s": median([(g["committed"] + g["aborted"]) / g["window_s"]
                                    for g in quiet]),
        "p50_ms": median([percentile(g["latency_ms"], 50) for g in quiet]),
        "p90_ms": median([percentile(g["latency_ms"], 90) for g in quiet]),
        "ok_ratio": ok / sent,
        "slo_ratio": median([sum(1 for x in g["latency_ms"] if x <= w["slo_ms"]) / g["sent"]
                             for g in quiet]),
        "setup_s": median([g["hello_ok_s"] for g in rounds]),
        "recovery_s": median([g["recovery_s"] for g in rounds]),
        "server_rss_mb": median([parse_vmhwm_kib(g["vm_status"]) / 1024 for g in rounds]),
        "session_close_ms": median([x for g in rounds for x in g["bye_ms"]]),
        "stats_ms": median(stats),
    }
    for r, g in enumerate(rounds):
        log("round %d: %d latency samples, %.0f txn/s, p50 %.3f ms, p90 %.3f ms, "
            "p99 %.3f ms, host steal %.3f%s"
            % (r, len(g["latency_ms"]), (g["committed"] + g["aborted"]) / g["window_s"],
               percentile(g["latency_ms"], 50), percentile(g["latency_ms"], 90),
               percentile(g["latency_ms"], 99), g["steal"],
               "" if any(g is q for q in quiet) else " (not counted)"))
    return m


def traced(w, name, seed, seconds, spans):
    tag = "%s-%s" % (name, "spans" if spans else "nospans")
    out = os.path.join(WORK, "trace-%s.json" % tag)
    args = [os.path.abspath(PERFBENCH), "trace", *w["gen"], "--seed", str(seed),
            "--mode", w["mode"], "--out", os.path.basename(out),
            "--spans-out", "spans-%s.csv" % name,
            *round_size(w, seconds)]
    if "--journal" in w["nvdb"]:
        for p in (JOURNAL, JOURNAL + ".ckpt"):
            if os.path.exists(os.path.join(WORK, p)):
                os.remove(os.path.join(WORK, p))
        args += ["--journal", JOURNAL, "--checkpoint-every", str(w["checkpoint_every"])]
    if not spans:
        args.append("--no-spans")
    # The traced pass plays the server, so it runs on the server's CPU.
    r = subprocess.run(args, cwd=WORK, preexec_fn=pinned(cpus()[0]), timeout=remaining())
    if r.returncode != 0 or not os.path.exists(out):
        raise RunFailed("traced pass failed (%s)" % tag)
    with open(out) as f:
        t = json.load(f)
    count(t)
    if t["committed"] + t["aborted"] + t["rejected"] != t["sent"] or t["unanswered"]:
        raise RunFailed("%s: traced pass answered %d of %d calls"
                        % (tag, t["committed"] + t["aborted"] + t["rejected"], t["sent"]))
    if not t["replay_ok"]:
        raise RunFailed("%s: replaying the admitted batches gave another state" % tag)
    if not t["recovered_ok"]:
        raise RunFailed("%s: journal recovery gave another state" % tag)
    return t


def call_seed(seed, r):
    """The call-stream seed of round r of a run."""
    return seed * 100 + r


def per_layer(name, w, seed, seconds, cpu_server, cpu_gen):
    seed = call_seed(seed, 0)
    g = served_round(name, w, seed, seconds, 0, cpu_server, cpu_gen)
    t = traced(w, name, seed, seconds, spans=True)
    base = traced(w, name, seed, seconds, spans=False)
    m = dict(t["metrics"])
    m.update(server_layer(g))
    lags = g["send_lag_ms"]
    m["client.send_lag_p99_ms"] = percentile(lags, 99) if lags else 0.0
    m["client.p99_ms"] = percentile(g["latency_ms"], 99)
    m["trace.traced_wall_s"] = t["wall_s"]
    m["trace.untraced_wall_s"] = base["wall_s"]
    m["trace.overhead_ratio"] = t["wall_s"] / base["wall_s"] - 1.0
    return m


def with_units(values, declared):
    """Attach the units BENCHMARK.json declares; the metric names must be
    exactly the declared ones."""
    units = {m["name"]: m["unit"] for m in declared}
    if set(values) != set(units):
        raise RunFailed("metrics %s differ from BENCHMARK.json"
                        % sorted(set(values) ^ set(units)))
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    w = WORKLOADS[a.workload]
    try:
        build()
    except (RunFailed, subprocess.TimeoutExpired, OSError) as e:
        log("FAILED: %s" % e)
        return 1
    DEADLINE[0] = time.monotonic() + RUN_BUDGET_S
    correct = True
    metrics = {}
    try:
        shutil.rmtree(WORK, ignore_errors=True)
        os.makedirs(WORK)
        cpu_server, cpu_gen = cpus()
        with open("BENCHMARK.json") as f:
            declared = json.load(f)
        if a.trace:
            values = per_layer(a.workload, w, a.seed, a.seconds, cpu_server, cpu_gen)
            metrics = with_units(values, declared["per_layer"])
        else:
            rounds = served_rounds(a.workload, w, a.seed, a.seconds, cpu_server, cpu_gen)
            metrics = with_units(end_to_end(w, rounds), declared["end_to_end"])
    except (RunFailed, subprocess.TimeoutExpired, OSError, KeyError, ValueError) as e:
        # A failed run is reported as failed, with no timings.
        log("FAILED: %s" % e)
        correct, metrics = False, {}
    attempted = max(TALLY["attempted"], 1)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": attempted - TALLY["ok"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    sys.exit(main())
