"""Outside-in span recorder for the ssblow layers.

The package source is never edited.  Tracer.install() rebinds public names
in the modules that consume them (ssblow.orbits, ssblow.profiles,
ssblow.cli and ssblow.io) to wrappers that record one span per call;
uninstall() puts the originals back.  A span is
[name, start, end, parent, op, attrs]: parent is the index of the
enclosing span, op the benchmark operation it belongs to, attrs the counts
noted at that boundary.  Spans stay in memory and are turned into layer
metrics at the end of a pass by layer_metrics().

Event guards run once per accepted step, so they get no span of their own:
each guard is wrapped through dataclasses.replace and its calls and time
are summed into the enclosing integrate span.  The integrator's rhs calls
are counted, not timed, for the same reason.
"""

from __future__ import annotations

import dataclasses
import os
import statistics
from collections import defaultdict
from time import perf_counter

NAME, START, END, PARENT, OP, ATTRS = range(6)

CLI_COMMANDS = ("params", "classify", "profile", "verify", "sweep")
SEARCH_MS = {1.3: "m1_3", 1.5: "m1_5", 1.8: "m1_8"}
TERMINATIONS = ("event", "max_time", "max_steps", "step_underflow")


class Tracer:
    def __init__(self):
        self.spans = []
        self.open = []
        self.op = None
        self.recording = False
        self.in_guard = False
        self.guard_rhs_calls = 0
        self._undo = []

    # -- spans -------------------------------------------------------------

    def begin(self, label, **attrs):
        parent = self.open[-1] if self.open else None
        self.spans.append([label, perf_counter(), None, parent, self.op, attrs])
        self.open.append(len(self.spans) - 1)
        return self.spans[-1]

    def end(self, span):
        span[END] = perf_counter()
        self.open.pop()

    def merge(self, dump: dict) -> None:
        """Adopt spans and counts written by a traced child process; its
        root spans become children of the span open now."""
        base = len(self.spans)
        parent = self.open[-1]
        for name, start, end, par, _op, attrs in dump["spans"]:
            self.spans.append([name, start, end, parent if par is None else base + par, self.op, attrs])
        self.guard_rhs_calls += dump["guard_rhs_calls"]

    def dump(self) -> dict:
        return {"spans": self.spans, "guard_rhs_calls": self.guard_rhs_calls}

    # -- wrappers ----------------------------------------------------------

    def _rebind(self, module, name, value):
        orig = getattr(module, name)
        setattr(module, name, value)
        self._undo.append(lambda: setattr(module, name, orig))

    def _spanned(self, fn, span_name, note=None):
        tr = self

        def wrapper(*args, **kwargs):
            if not tr.recording:
                return fn(*args, **kwargs)
            span = tr.begin(span_name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tr.end(span)
            if note is not None:
                note(span[ATTRS], args, out)
            return out

        return wrapper

    def wrap(self, module, name, span_name, note=None):
        self._rebind(module, name, self._spanned(getattr(module, name), span_name, note))

    def _guard(self, guard, stats):
        tr = self

        def timed_guard(p):
            tr.in_guard = True
            t0 = perf_counter()
            try:
                return guard(p)
            finally:
                stats[1] += perf_counter() - t0
                stats[0] += 1
                tr.in_guard = False

        return timed_guard

    def _integrate(self, orig, via):
        tr = self

        def integrate(field, start, events=(), controls=None):
            if not tr.recording:
                return orig(field, start, events, controls)
            calls = [0]

            def counted_field(t, y):
                calls[0] += 1
                return field(t, y)

            stats = {ev.id: [0, 0.0] for ev in events}
            events = [dataclasses.replace(ev, guard=tr._guard(ev.guard, stats[ev.id])) for ev in events]
            span = tr.begin("integrate", via=via)
            try:
                traj = orig(counted_field, start, events, controls)
            finally:
                tr.end(span)
            span[ATTRS].update(
                rhs=calls[0],
                steps=traj.n_steps,
                samples=len(traj.eta),
                term=traj.termination,
                guards={k: v[0] for k, v in stats.items()},
                guard_s=sum(v[1] for v in stats.values()),
            )
            return traj

        return integrate

    def _make_rhs(self, orig):
        tr = self

        def make_rhs(params):
            rhs = orig(params)
            if not tr.recording:
                return rhs

            def counted_rhs(t, y):
                if tr.in_guard:
                    tr.guard_rhs_calls += 1
                return rhs(t, y)

            return counted_rhs

        return make_rhs

    def install(self, ssblow) -> "Tracer":
        """Rebind the traced names; ssblow is the imported package."""
        cli, io, orbits, profiles = ssblow.cli, ssblow.io, ssblow.orbits, ssblow.profiles

        self._rebind(orbits, "integrate", self._integrate(orbits.integrate, "orbits"))
        self._rebind(profiles, "integrate", self._integrate(profiles.integrate, "profiles"))
        self._rebind(orbits, "make_rhs", self._make_rhs(orbits.make_rhs))
        self.wrap(orbits, "classify_fate", "orbits.classify",
                  lambda a, args, fate: a.update(kind=fate.kind, steps=args[0].n_steps))
        self.wrap(orbits, "sigma_star", "orbits.search", lambda a, args, res: a.update(m=args[0]))

        for module in (profiles, cli):
            self.wrap(module, "reconstruct_profile", "profiles.reconstruct",
                      lambda a, args, frame: a.update(samples=len(frame)))
            self.wrap(module, "integrate_ssode", "profiles.ssode")
            self.wrap(module, "find_good_profile_P1", "profiles.shoot")
            self.wrap(module, "ssode_residual", "profiles.residual")
        self.wrap(cli, "verify_barrier", "barriers.verify",
                  lambda a, args, rep: a.update(samples=rep.samples_tested))

        def written(rows_of):
            return lambda a, args, _: a.update(bytes=os.path.getsize(args[0]), rows=rows_of(args[1]))

        self.wrap(io, "write_trajectory_csv", "io.write", written(lambda t: len(t.eta)))
        self.wrap(io, "write_profile_csv", "io.write", written(len))
        self.wrap(io, "write_sweep_csv", "io.write", written(len))
        for name in ("read_trajectory_csv", "read_profile_csv", "read_sweep_csv"):
            self.wrap(io, name, "io.read")

        for cmd, body in list(cli._COMMANDS.items()):
            cli._COMMANDS[cmd] = self._spanned(body, "cli." + cmd)
            self._undo.append(lambda cmd=cmd, body=body: cli._COMMANDS.__setitem__(cmd, body))
        return self

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()


# ---------------------------------------------------------------------------
# layer metrics
# ---------------------------------------------------------------------------


def _within(spans, i, name) -> bool:
    """Whether span i has an ancestor called name."""
    p = spans[i][PARENT]
    while p is not None:
        if spans[p][NAME] == name:
            return True
        p = spans[p][PARENT]
    return False


def layer_metrics(tr: Tracer) -> dict:
    """Per-layer counts and times of one traced pass."""
    spans = tr.spans
    dur = [s[END] - s[START] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[PARENT] is not None:
            child[s[PARENT]] += dur[i]
    by = defaultdict(list)
    for i, s in enumerate(spans):
        by[s[NAME]].append(i)

    def total(name):
        return sum(dur[i] for i in by[name])

    def attr_sum(name, key):
        return sum(spans[i][ATTRS].get(key, 0) for i in by[name])

    integ = by["integrate"]
    runs = len(integ)
    steps = attr_sum("integrate", "steps")
    rhs = attr_sum("integrate", "rhs")
    guard_s = attr_sum("integrate", "guard_s")
    out = {
        "field.rhs_calls": rhs,
        "field.guard_rhs_calls": tr.guard_rhs_calls,
        "integrate.runs": runs,
        "integrate.steps": steps,
        "integrate.samples": attr_sum("integrate", "samples"),
        "integrate.rejected_steps": (rhs - 2 * runs) / 6.0 - steps,
        "integrate.us_per_step": 1e6 * total("integrate") / steps if steps else 0.0,
        "integrate.self_s": sum(dur[i] - child[i] for i in integ) - guard_s,
        "integrate.guard_calls": sum(sum(spans[i][ATTRS]["guards"].values()) for i in integ),
        "integrate.guard_s": guard_s,
    }
    for term in TERMINATIONS:
        out["integrate.term." + term] = sum(spans[i][ATTRS]["term"] == term for i in integ)

    searches = by["orbits.search"]
    orbit_runs = [i for i in integ if spans[i][ATTRS]["via"] == "orbits"]
    in_search = sum(_within(spans, i, "orbits.search") for i in orbit_runs)
    fates = [spans[i][ATTRS] for i in by["orbits.classify"]]
    orbit_steps = sum(spans[i][ATTRS]["steps"] for i in orbit_runs)
    out.update({
        "orbits.runs_per_search": in_search / len(searches) if searches else 0.0,
        "orbits.decisive_ratio": (
            sum(f["kind"] != "inconclusive" for f in fates) / len(fates) if fates else 0.0
        ),
        "orbits.inconclusive_step_share": (
            sum(f["steps"] for f in fates if f["kind"] == "inconclusive") / orbit_steps
            if orbit_steps else 0.0
        ),
        "orbits.classify_s": total("orbits.classify"),
    })
    for m, tag in SEARCH_MS.items():
        out["orbits.search_s." + tag] = sum(dur[i] for i in searches if spans[i][ATTRS]["m"] == m)

    shoots = by["profiles.shoot"]
    out.update({
        "profiles.reconstruct_s": total("profiles.reconstruct"),
        "profiles.reconstruct_samples": attr_sum("profiles.reconstruct", "samples"),
        "profiles.ssode_s": total("profiles.ssode"),
        "profiles.ssode_runs": len(by["profiles.ssode"]),
        "profiles.shoot_runs": (
            sum(_within(spans, i, "profiles.shoot") for i in by["profiles.ssode"]) / len(shoots)
            if shoots else 0.0
        ),
        "profiles.residual_s": total("profiles.residual"),
        "barriers.verify_s": total("barriers.verify"),
        "barriers.samples": attr_sum("barriers.verify", "samples"),
        "io.write_s": total("io.write"),
        "io.read_s": total("io.read"),
        "io.bytes_written": attr_sum("io.write", "bytes"),
        "io.rows": attr_sum("io.write", "rows"),
    })

    mains = defaultdict(list)
    overheads = []
    for i in by["cli.main"]:
        mains[spans[i][ATTRS]["cmd"]].append(dur[i])
        overheads.append(dur[spans[i][PARENT]] - dur[i])
    for cmd in CLI_COMMANDS:
        out["cli.main_s." + cmd] = statistics.fmean(mains[cmd]) if mains[cmd] else 0.0
    out["cli.process_overhead_s"] = statistics.fmean(overheads) if overheads else 0.0
    return out


# counts that must repeat exactly from one traced pass to the next
COUNTS = (
    "field.rhs_calls", "field.guard_rhs_calls", "integrate.runs", "integrate.steps",
    "integrate.samples", "integrate.guard_calls", "profiles.ssode_runs",
    "profiles.reconstruct_samples", "barriers.samples", "io.bytes_written", "io.rows",
) + tuple("integrate.term." + t for t in TERMINATIONS)
