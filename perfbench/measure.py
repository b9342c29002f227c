"""Pure helpers of the served-path benchmark: exact percentiles over raw
samples and parsers for the /proc files the generator captures.

Kept free of I/O so test_measure.py can check them directly."""

import math


def percentile(samples, p):
    """Exact nearest-rank percentile: the smallest sample such that at
    least p percent of the samples are at or below it. No buckets, no
    interpolation: the value is one of the samples."""
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0 < p <= 100:
        raise ValueError("percentile must be in (0, 100]")
    ordered = sorted(samples)
    rank = math.ceil(p / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def quiet_half(items, key):
    """The half of [items] (rounded up) with the smallest [key], in
    increasing order of it: a run's rounds with the least host steal."""
    return sorted(items, key=key)[:(len(items) + 1) // 2]


def parse_stat(text):
    """CPU time of a process from /proc/<pid>/stat, in clock ticks:
    (utime, stime). The command name (field 2) may hold spaces and
    parentheses, so fields are counted from the last ')'."""
    rest = text[text.rindex(")") + 2:].split()
    # rest[0] is field 3 (state); utime and stime are fields 14 and 15.
    return int(rest[11]), int(rest[12])


def parse_io(text):
    """The key: value counters of /proc/<pid>/io as a dict of ints."""
    out = {}
    for line in text.splitlines():
        key, _, value = line.partition(":")
        if value.strip():
            out[key.strip()] = int(value)
    return out


def parse_cpu_ticks(text):
    """The all-CPU line of /proc/stat: (steal ticks, total ticks)."""
    fields = [int(x) for x in text.splitlines()[0].split()[1:]]
    # user nice system idle iowait irq softirq steal [guest guest_nice],
    # where guest time is already counted in user and nice.
    return fields[7], sum(fields[:8])


def parse_vmhwm_kib(text):
    """Peak resident set (VmHWM) from /proc/<pid>/status, in KiB."""
    for line in text.splitlines():
        if line.startswith("VmHWM:"):
            value, unit = line.split()[1:3]
            if unit != "kB":
                raise ValueError("unexpected VmHWM unit %r" % unit)
            return int(value)
    raise ValueError("no VmHWM line")

