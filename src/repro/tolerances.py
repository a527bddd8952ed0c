"""Numerical tolerances of the simulator, the arbiter and MoCA.

Every float comparison that is not exact equality uses one of these
constants.  The engine loops (kernel and reference), the bandwidth
arbiter, MoCA's regulation sweep and the instruction-level multi-tile
co-simulation all import them from here.  Hot loops bind them to
locals once per call.

Changing a value changes simulator outputs, so the goldens would have
to be re-blessed.
"""

#: Block progress at or above ``1 - COMPLETION_EPS`` counts as the
#: block completing.  A pending task whose dispatch cycle is within
#: this of ``now`` is dispatched now.
COMPLETION_EPS = 1e-9

#: The smallest time step the engine advances by, in cycles.  A
#: shorter distance to the next event is rounded up to this, so a
#: boundary that float rounding leaves a hair ahead still lands.
MIN_DT = 1e-6

#: Two bandwidth caps closer than this (bytes/cycle) are the same
#: cap: re-applying one is a no-op and charges no reconfiguration.
CAP_EQ_TOL = 1e-9

#: Relative slack of the arbiter's fit test: total wants within
#: ``total * (1 + ARBITER_REL_TOL)`` count as fitting the channel,
#: and the water-fill freezes a requestor whose want fits its share
#: by the same factor.
ARBITER_REL_TOL = 1e-12

#: Remaining work (and the smallest time step) of the multi-tile
#: instruction-level co-simulation below which a stream is done.
MULTITILE_EPS = 1e-9
