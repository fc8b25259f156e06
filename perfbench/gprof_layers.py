#!/usr/bin/env python3
"""Per-layer self-time shares from a gprof flat profile, for comparison
with the traced replay's layer shares (README.md, "gprof cross-check").

    cmake -S perfbench -B <dir> -DCMAKE_BUILD_TYPE=Release \\
        "-DCMAKE_CXX_FLAGS=-pg -fno-omit-frame-pointer -fno-inline-functions" \\
        -DCMAKE_EXE_LINKER_FLAGS=-pg
    cmake --build <dir> --target perfbench_run
    <dir>/perfbench_run --workload chase-mcf --seed 1 --seconds 20
    python3 perfbench/gprof_layers.py <dir>/perfbench_run gmon.out

Functions are assigned to the src/ module whose namespace their name
starts with; a library template instantiated on a simulator type (say
std::deque<rrm::memctrl::Request>) goes to that type's module; the
rest (the C++ runtime, malloc) is "other".
"""

import re
import subprocess
import sys

# (name prefix, layer), first match wins.
LAYERS = [
    ("rrm::cache::", "cache"),
    ("rrm::memctrl::", "memctrl"),
    ("rrm::cpu::", "cpu"),
    ("rrm::trace::", "trace"),
    ("rrm::Random::", "trace"),
    ("rrm::monitor::", "policy"),
    ("rrm::policy::", "policy"),
    ("rrm::EventQueue", "sim"),
    ("rrm::PeriodicTask", "sim"),
    ("rrm::InlineFunction", "sim"),
    ("rrm::sys::", "system"),
    ("rrm::stats::", "stats"),
    ("rrm::pcm::", "pcm"),
    ("perfbench::", "bench"),
]

INNER = re.compile(r"rrm::(?:[A-Za-z_]\w*::)*")

ROW = re.compile(r"^\s*([\d.]+)\s+([\d.]+)\s+([\d.]+)\s+"
                 r"(?:\d+\s+[\d.]+\s+[\d.]+\s+)?(\S.*)$")


def layer_of(name):
    for prefix, layer in LAYERS:
        if name.startswith(prefix):
            return layer
    for m in INNER.finditer(name):
        for prefix, layer in LAYERS:
            if m.group(0).startswith(prefix):
                return layer
    return "other"


def shares(binary, gmon):
    flat = subprocess.run(["gprof", "-b", "-p", binary, gmon],
                          capture_output=True, text=True, check=True).stdout
    self_s = {}
    for line in flat.splitlines():
        m = ROW.match(line)
        if m:
            layer = layer_of(m.group(4))
            self_s[layer] = self_s.get(layer, 0.0) + float(m.group(3))
    total = sum(self_s.values())
    return {k: 100.0 * v / total for k, v in self_s.items()}, total


def main():
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    result, total = shares(sys.argv[1], sys.argv[2])
    print(f"gprof self time {total:.2f} s")
    for layer, pct in sorted(result.items(), key=lambda kv: -kv[1]):
        print(f"  {layer:8s} {pct:6.1f} %")


if __name__ == "__main__":
    main()
