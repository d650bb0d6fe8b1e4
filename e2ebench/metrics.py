"""Pure helpers of the end-to-end benchmark: statistics, the message-tag
to protocol-phase map, span self times and the phase reconciliation.

run.py turns the driver's raw measurements into metrics with these;
test_metrics.py tests them.
"""

import math
import re
from pathlib import Path

# Protocol phase of every message tag, keyed by the tag's constant name in
# src/core/wire.h or src/smc/*.cc (test_metrics.py checks that every tag
# defined there is listed, so a new tag cannot silently land in "other").
TAG_FAMILIES = {
    # Job hello, session setup, the serve control plane, and abort frames.
    "kJobHello": "negotiate",
    "kSessionHello": "negotiate",
    "kServeJobAnnounce": "negotiate",
    "kServeJobDone": "negotiate",
    "kServeShutdown": "negotiate",
    "kServeJobFailed": "negotiate",
    "kServeHealLink": "negotiate",
    "kServeLinkHealed": "negotiate",
    "kAbortMessageType": "negotiate",
    # Clustering planner rounds.
    "kPlanBounds": "plan",
    "kPlanBands": "plan",
    # Distance protocols: HDP batches, secure products, dot products and
    # the arbitrary scheme's per-pair HDP; the basic scan's control frames.
    "kHzQueryBasic": "hdp",
    "kHzScanDone": "hdp",
    "kHdpCiphers": "hdp",
    "kHdpResponse": "hdp",
    "kMultCipher": "hdp",
    "kMultResponse": "hdp",
    "kDotAlpha": "hdp",
    "kDotResponse": "hdp",
    "kArbPairCiphers": "hdp",
    "kArbPairResponse": "hdp",
    # Secure comparators.
    "kIdealQuery": "compare",
    "kIdealAnswer": "compare",
    "kBlindQuery": "compare",
    "kBlindAnswer": "compare",
    "kYmppOffer": "compare",
    "kYmppTable": "compare",
    "kYmppReport": "compare",
    # Section 5 k-th smallest selection.
    "kHzQueryEnhanced": "select",
    "kSelCompare": "select",
    "kSelFinal": "select",
    "kSelDone": "select",
    # Vertical protocol (Algorithms 5/6).
    "kVtQuery": "vertical",
    "kVtNeighbours": "vertical",
    "kVtDone": "vertical",
    "kVtHello": "vertical",
    "kVtPrune": "vertical",
    # Sieve plan's batched encrypted eps-membership round.
    "kHzQueryMembership": "membership",
    "kMshBegin": "membership",
    "kMshCiphers": "membership",
    "kMshResponse": "membership",
    # Cross-party merge extension.
    "kMergeCores": "merge",
    "kMergeLinks": "merge",
}

FAMILIES = ["negotiate", "plan", "hdp", "compare", "select", "vertical",
            "membership", "merge"]

TAG_SOURCES = ["src/core/wire.h", "src/smc/*.cc", "src/net/message.h"]

_TAG_RE = re.compile(
    r"constexpr\s+uint16_t\s+(k\w+)\s*=\s*(0x[0-9A-Fa-f]+|\d+)\s*;")


def read_tags(root):
    """Message tags defined in the sources: {constant name: value}."""
    tags = {}
    for pattern in TAG_SOURCES:
        for path in sorted(Path(root).glob(pattern)):
            for name, value in _TAG_RE.findall(path.read_text()):
                tags[name] = int(value, 0)
    return tags


def tag_family_map(root):
    """{tag value: family}; KeyError names a tag missing from TAG_FAMILIES."""
    return {value: TAG_FAMILIES[name]
            for name, value in read_tags(root).items()}


def median(values):
    values = sorted(values)
    if not values:
        raise ValueError("median of no values")
    mid = len(values) // 2
    if len(values) % 2:
        return values[mid]
    return (values[mid - 1] + values[mid]) / 2


def percentile(values, q):
    """q-th percentile (0..100), linear between closest ranks."""
    values = sorted(values)
    if not values:
        raise ValueError("percentile of no values")
    pos = (len(values) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def samples_beyond(values, q):
    """How many samples lie strictly above the q-th percentile."""
    cut = percentile(values, q)
    return sum(1 for v in values if v > cut)


def relative_spread(values):
    """Interquartile distance over the median, as statistics.quantiles
    (n=4, exclusive method) gives the quartiles."""
    import statistics
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = median(values)
    return (q3 - q1) / mid if mid else float("inf")


def self_times(spans):
    """{layer: seconds} — each span's duration minus the union of its
    children's intervals, summed per layer (the name's first component)."""
    children = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(span)
    totals = {}
    for span in spans:
        covered = 0.0
        cursor = span["start"]
        for child in sorted(children.get(span["id"], []),
                            key=lambda c: c["start"]):
            lo = max(child["start"], cursor)
            hi = min(child["end"], span["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        layer = span["name"].split(".")[0]
        own = max(0.0, span["end"] - span["start"] - covered)
        totals[layer] = totals.get(layer, 0.0) + own
    return totals


def phase_breakdown(party, families):
    """One party's job by phase: {family: {compute_s, wait_s, frames,
    bytes}} plus the residual, wall time minus the phases' compute + wait.

    `party` is the driver's per-party record: wall_s and tags, where each
    tag maps to [compute_s, wait_s, send_s, frames, bytes]. Time inside
    Send counts as compute. Unknown tags fall into "other".
    """
    phases = {}
    for tag, (compute, wait, send, frames, nbytes) in party["tags"].items():
        family = families.get(int(tag), "other")
        phase = phases.setdefault(
            family, {"compute_s": 0.0, "wait_s": 0.0, "frames": 0, "bytes": 0})
        phase["compute_s"] += compute + send
        phase["wait_s"] += wait
        phase["frames"] += frames
        phase["bytes"] += nbytes
    accounted = sum(p["compute_s"] + p["wait_s"] for p in phases.values())
    return phases, party["wall_s"] - accounted


def reconciles(party, families, tolerance=0.05):
    """True when the phases account for the party's wall time to within
    `tolerance` of it (the residual is the trailing local work after the
    party's last frame)."""
    _, residual = phase_breakdown(party, families)
    return abs(residual) <= tolerance * party["wall_s"]
