"""Traced job runner, and the per-layer metrics computed from its spans.

    python3 perfbench/tracer.py SPAWN_NS SPANS_JSON cli|lib ARGS...

runs one job in-process: `gghs.cli.main(ARGS)` or `libjob.main(ARGS)`.
Before the job starts, every public function of every public gghs module is
replaced, in every gghs namespace that binds it, by a wrapper that records a
span (function, start, end, parent span). Private helpers such as the
recursive `formats._render` stay unwrapped, since a wrapper per call there
would distort the time it measures. Spans stay in memory and are written to
SPANS_JSON when the job ends; the job's stdout is passed through unchanged.

SPAWN_NS is the parent's CLOCK_MONOTONIC reading just before it started this
process, which gives the interpreter start-up time.
"""

import sys
import time

_FIRST_NS = time.monotonic_ns()

import functools  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import types  # noqa: E402


class Recorder:
    def __init__(self):
        self.names = []
        self.spans = []  # [name index, start ns, end ns, parent span, amps returned]
        self._stack = []

    def _wrap(self, fn):
        name_id = len(self.names)
        self.names.append(fn.__module__.split(".")[-1] + "." + fn.__name__)
        spans, stack, clock = self.spans, self._stack, time.monotonic_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name_id, clock(), 0, stack[-1] if stack else -1, 0]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            amps = getattr(result, "amps", None)
            if amps is not None:
                span[4] = int(amps.size)  # d**n of a returned state
            return result

        return wrapper

    def install(self):
        wrapped = {}
        modules = [m for k, m in sys.modules.items() if k == "gghs" or k.startswith("gghs.")]
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or not isinstance(obj, types.FunctionType):
                    continue
                home = obj.__module__ or ""
                if not home.startswith("gghs.") or home.split(".")[-1].startswith("_"):
                    continue
                if obj not in wrapped:
                    wrapped[obj] = self._wrap(obj)
                setattr(mod, name, wrapped[obj])


def run(argv) -> int:
    spawn_ns, spans_path, kind, args = int(argv[0]), argv[1], argv[2], argv[3:]
    t0 = time.monotonic_ns()
    if kind == "cli":
        import gghs.cli

        entry = lambda: gghs.cli.main(args)  # noqa: E731  (looked up after install)
    else:
        import gghs

        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import libjob

        entry = lambda: libjob.main(args)  # noqa: E731
    t1 = time.monotonic_ns()
    rec = Recorder()
    rec.install()
    real_stdout, buf = sys.stdout, io.StringIO()
    sys.stdout = buf
    try:
        rc = entry()
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout = real_stdout
    out = buf.getvalue()
    real_stdout.write(out)
    real_stdout.flush()
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "interp_s": (_FIRST_NS - spawn_ns) / 1e9,
                "import_s": (t1 - t0) / 1e9,
                "bytes_out": len(out.encode("utf-8")),
                "names": rec.names,
                "spans": rec.spans,
            },
            fh,
        )
    return rc or 0


def job_metrics(record: dict) -> dict:
    """Per-layer figures of one traced job, keyed like BENCHMARK.json's per_layer.

    <module>.calls / .self_s     spans of the module; self = duration minus
                                 the direct child spans
    <module>.<fn>.total_s        outermost spans of fn (nested calls of the
                                 same fn are inside them)
    <module>.<fn>.calls          every span of fn
    qstate.amps_built            d**n summed over qstate calls that return a
                                 state: computed from the result, not counted
                                 by the program
    """
    names, spans = record["names"], record["spans"]
    out = {
        "startup.interp_s": record["interp_s"],
        "startup.import_s": record["import_s"],
        "formats.bytes_out": record["bytes_out"],
    }

    def add(key, value):
        out[key] = out.get(key, 0) + value

    child_ns = [0] * len(spans)
    for name_id, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    for i, (name_id, start, end, parent, amps) in enumerate(spans):
        name = names[name_id]
        module = name.split(".")[0]
        dur = end - start
        add(module + ".calls", 1)
        add(module + ".self_s", (dur - child_ns[i]) / 1e9)
        add(name + ".calls", 1)
        p = parent
        while p >= 0 and spans[p][0] != name_id:
            p = spans[p][3]
        if p < 0:
            add(name + ".total_s", dur / 1e9)
        if module == "qstate":
            add("qstate.amps_built", amps)
    return out


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
