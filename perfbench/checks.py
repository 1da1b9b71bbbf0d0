"""Output checks: properties the model must have, computed here.

None of these compares against a stored copy of earlier output.  Each
function returns a list of problem strings (empty when the check
holds); the benchmark counts an operation whose result fails a check
as a failed operation.

Byte conservation is checked through request counts, not bytes:
``HMCStats.requested_bytes`` leaves out requests merged into MSHR
subentries and no stat records subentry bytes, so requested bytes at
the HMC cannot be matched against requested bytes at the LLC from
outside the simulator (see README.md).
"""

from __future__ import annotations

import math

#: Legal HMC request payloads (bytes).
PACKET_SIZES = (64, 128, 256)
#: Header + tail control bytes per HMC request packet (one 32 B pair).
CONTROL_BYTES = 32


def check_result(label: str, result) -> list[str]:
    """(a)-(c) on one :class:`repro.sim.driver.SimulationResult`."""
    problems = []
    c, h = result.coalescer, result.hmc
    # (a) every LLC request is either issued or eliminated by a phase.
    eliminated = c.dmc.requests_eliminated + c.mshr.requests_eliminated
    if c.llc_requests - h.requests != eliminated:
        problems.append(
            f"{label}: LLC {c.llc_requests} - HMC {h.requests} != "
            f"DMC+MSHR eliminated {eliminated}"
        )
    # (b) legal packet sizes, payload and read/write accounting.
    sizes = set(h.size_histogram)
    if not sizes <= set(PACKET_SIZES):
        problems.append(f"{label}: illegal packet sizes {sorted(sizes - set(PACKET_SIZES))}")
    payload = sum(size * n for size, n in h.size_histogram.items())
    if payload != h.payload_bytes:
        problems.append(f"{label}: payload {h.payload_bytes} != sum(size*count) {payload}")
    if sum(h.size_histogram.values()) != h.requests:
        problems.append(f"{label}: size histogram does not sum to {h.requests} requests")
    if h.reads + h.writes != h.requests:
        problems.append(f"{label}: reads {h.reads} + writes {h.writes} != {h.requests}")
    # (c) control bytes and Equation 1, recomputed.
    if h.control_bytes != CONTROL_BYTES * h.requests:
        problems.append(f"{label}: control bytes {h.control_bytes} != 32 B x {h.requests}")
    transferred = h.payload_bytes + h.control_bytes
    eq1 = h.requested_bytes / transferred if transferred else 0.0
    if not math.isclose(eq1, result.bandwidth_efficiency, rel_tol=1e-12, abs_tol=0.0):
        problems.append(
            f"{label}: Eq. 1 efficiency {eq1!r} != reported {result.bandwidth_efficiency!r}"
        )
    # (d), the half that needs no baseline: never more HMC requests
    # than LLC requests (an uncoalesced run issues exactly one each).
    if h.requests > c.llc_requests:
        problems.append(f"{label}: {h.requests} HMC requests > {c.llc_requests} LLC requests")
    return problems


def check_against_uncoalesced(benchmark: str, results: dict) -> list[str]:
    """(d) on one trace: ``results`` maps config name -> result and
    holds an ``uncoalesced`` entry."""
    base = results["uncoalesced"]
    problems = []
    if base.hmc.requests != base.coalescer.llc_requests:
        problems.append(
            f"{benchmark}/uncoalesced: {base.hmc.requests} HMC requests for "
            f"{base.coalescer.llc_requests} LLC requests"
        )
    for name, result in results.items():
        if result.hmc.requests > base.hmc.requests:
            problems.append(
                f"{benchmark}/{name}: {result.hmc.requests} HMC requests > "
                f"uncoalesced {base.hmc.requests}"
            )
    return problems


def check_analytic_figures(fig1, fig2) -> list[str]:
    """(e): Figure 1 is s/(s+32) at each plotted size; Figure 2's
    16 B : 256 B control ratio is 16."""
    problems = []
    for size, efficiency, _ in fig1.rows:
        expected = size / (size + CONTROL_BYTES)
        if not math.isclose(efficiency, expected, rel_tol=1e-12):
            problems.append(f"Fig 1 at {size} B: {efficiency!r} != {expected!r}")
    ratio = fig2.summary["ratio_16B_vs_256B"]
    if ratio != 16:
        problems.append(f"Fig 2 16 B : 256 B control ratio {ratio!r} != 16")
    return problems
