"""Validates a Chrome trace written by the traced run.

A valid trace is a JSON object whose "traceEvents" list holds complete
("X") events with numeric ts/dur and args {id, parent, request}, ids unique,
every parent present, and every span inside its parent's interval with
siblings not overlapping: the spans nest properly.

    python3 perfbench/trace_check.py TRACE.json
"""
import json
import sys

# ts/dur carry three decimals of a microsecond; allow that rounding.
_SLACK_US = 0.002


def check_trace(doc):
    """Returns a list of problems; empty when the trace is valid."""
    if not isinstance(doc, dict) or not isinstance(doc.get("traceEvents"), list):
        return ["no traceEvents list"]
    events = doc["traceEvents"]
    if not events:
        return ["no events"]
    problems = []
    spans = {}
    for i, ev in enumerate(events):
        args = ev.get("args", {}) if isinstance(ev, dict) else {}
        if (not isinstance(ev, dict) or ev.get("ph") != "X"
                or not isinstance(ev.get("name"), str)
                or not all(isinstance(ev.get(k), (int, float)) for k in ("ts", "dur"))
                or not all(isinstance(args.get(k), int) for k in ("id", "parent", "request"))):
            problems.append("event %d is not a complete span with id/parent/request" % i)
            continue
        if ev["dur"] < 0:
            problems.append("event %d has a negative duration" % i)
        if args["id"] in spans:
            problems.append("span id %d appears twice" % args["id"])
        spans[args["id"]] = ev
    children = {}
    for ev in spans.values():
        parent = ev["args"]["parent"]
        if parent == 0:
            continue
        if parent not in spans:
            problems.append("span %d has no parent %d" % (ev["args"]["id"], parent))
            continue
        p = spans[parent]
        if ev["ts"] + _SLACK_US < p["ts"] or ev["ts"] + ev["dur"] > p["ts"] + p["dur"] + _SLACK_US:
            problems.append("span %d (%s) is not inside its parent %d (%s)"
                            % (ev["args"]["id"], ev["name"], parent, p["name"]))
        children.setdefault(parent, []).append(ev)
    children[0] = [ev for ev in spans.values() if ev["args"]["parent"] == 0]
    for parent, kids in children.items():
        kids.sort(key=lambda e: e["ts"])
        for a, b in zip(kids, kids[1:]):
            if b["ts"] + _SLACK_US < a["ts"] + a["dur"]:
                problems.append("siblings %d (%s) and %d (%s) overlap"
                                % (a["args"]["id"], a["name"], b["args"]["id"], b["name"]))
    return problems


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        problems = check_trace(json.load(f))
    for p in problems[:20]:
        print(p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
