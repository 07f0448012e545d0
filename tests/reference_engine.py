"""A naive reference simulator of the engine's documented semantics, for differential tests.

It shares only the delay laws of ``upfmec.delay`` and the queue sizes of a
freshly built ``SimulationRun`` with the engine.  Everything else is
written again as plainly as possible: each epoch of the horizon draws its
own arrivals from a generator seeded with the scenario's seed (the count,
then the origins, then the classes, each with ``rng.choice`` on the
normalised weights), one dict per request, a plain list per queue, every
price computed from ``(len + pending, c)`` at each decision with a Python
loop over the candidates, every queue served each epoch and every link
scanned in (i, j) order.  Each request keeps its own status, set as it
moves, and its own due epoch, set when it enters its link.
``reference_run(scenario)`` returns the 8 record columns, each request's
status and due epoch, the 3 inputs each decision read, recorded when it
was made, the epoch reports and each request's arrival epoch, which the
engine, a ``metrics.RunView`` of its run (``status``, ``mec_due`` and
``arrival``) and ``metrics.decision_inputs`` of that view must equal.  A class is kept as
its code, its index in ``SERVICE_ORDER`` (``list(QosClass)``).
"""

from __future__ import annotations

import math

import numpy as np

from upfmec.delay import net_delay, projected_delay, transit_epochs
from upfmec.engine import EpochReport, SimulationRun
from upfmec.model import QosClass, RequestStatus, Scheme

COLUMNS = (
    "qos", "drop", "origin_upf", "assigned_upf", "assigned_mec",
    "upf_serve_epoch", "mec_serve_epoch", "d_net",
)
# what each decision read: the UPF price, the chosen link's sharers, the MEC price
INPUTS = ("pc_upf", "n_share", "pc_mec")
SERVICE_ORDER = list(QosClass)
REPORT_ORDER = sorted(QosClass, key=lambda q: q.value)


class Queue:
    """An FCFS queue of request dicts served at ``capacity`` per epoch, fractions kept as credit."""

    def __init__(self, capacity, cap):
        self.capacity, self.cap = capacity, cap
        self.items, self.credit, self.pending = [], 0.0, 0

    def price(self, delta):
        q = len(self.items) + self.pending
        return projected_delay(q, self.capacity, self.capacity, delta)

    def serve(self):
        """Pop and return this epoch's served requests."""
        credit = self.credit + self.capacity
        n = min(len(self.items), int(credit))
        assert n <= math.ceil(self.capacity)
        self.credit = credit - n if len(self.items) > n else 0.0
        served, self.items = self.items[:n], self.items[n:]
        return served


def first_min(prices):
    """Index of the first lowest price."""
    best = 0
    for k in range(1, len(prices)):
        if prices[k] < prices[best]:
            best = k
    return best


class Reference:
    def __init__(self, scenario):
        built = SimulationRun(scenario)
        self.s = scenario
        self.delta = float(scenario.delta_ms)
        self.rng = np.random.default_rng(scenario.seed)
        self.upfs = [{q: Queue(u[q].capacity, u[q].queue_cap) for q in QosClass} for u in built.upfs]
        self.mecs = [Queue(m.capacity, m.queue_cap) for m in built.mecs]
        # (i, j) -> [sharers, [(request, due epoch), ...] in entry order]
        self.links = {(i, j): [0, []] for i in range(len(self.upfs)) for j in range(len(self.mecs))}
        self.requests, self.reports = [], []
        self.epoch = self.completed = self.dropped = 0

    def choose(self, qos, origin):
        """(upf index, mec index or None) as the scheme picks, and the prices it read."""
        scheme, delta = self.s.scheme, self.delta
        upf_prices = [u[qos].price(delta) for u in self.upfs]
        mec_prices = [m.price(delta) for m in self.mecs]
        i = origin - 1 if scheme is Scheme.BASELINE else first_min(upf_prices)
        j = None
        if qos.uses_mec:
            if scheme is Scheme.BESTFIT_UPF_MEC:
                j = first_min(mec_prices)
            elif scheme is Scheme.BESTFIT_UPF_PE:
                j = i
            else:
                j = origin - 1
        return i, j, upf_prices[i], (None if j is None else mec_prices[j])

    def arrivals(self):
        """This epoch's origin UPF ids and class codes, drawn from the run's generator."""
        t, e = self.s.traffic, self.epoch
        if t.process == "poisson":
            count = int(self.rng.poisson(t.mean_arrivals_per_epoch))
        else:
            count = math.floor((e + 1) * t.mean_arrivals_per_epoch) - math.floor(
                e * t.mean_arrivals_per_epoch)
        skew = np.array(t.skew, float)
        mix = np.array([t.qos_mix[q] for q in SERVICE_ORDER], float)
        origins = self.rng.choice(len(skew), size=count, p=skew / skew.sum()) + 1
        codes = self.rng.choice(len(mix), size=count, p=mix / mix.sum())
        return origins.tolist(), codes.tolist()

    def step(self, generate):
        e, delta = self.epoch, self.delta
        origins, codes = self.arrivals() if generate else ([], [])
        admitted = dropped = completed = served_upf = served_mec = 0
        for origin, code in zip(origins, codes):
            qos = SERVICE_ORDER[code]
            i, j, pc_upf, pc_mec = self.choose(qos, origin)
            r = {
                "qos": code, "origin_upf": origin, "arrival_epoch": e, "assigned_upf": i + 1,
                "assigned_mec": None, "upf_serve_epoch": None, "mec_due_epoch": None,
                "mec_serve_epoch": None, "d_net": None, "pc_upf": pc_upf, "n_share": 0,
                "pc_mec": 0.0,
            }
            self.requests.append(r)
            if j is not None:
                r["assigned_mec"], r["pc_mec"] = j + 1, pc_mec
                r["n_share"] = self.links[(i, j)][0]
            bucket = self.upfs[i][qos]
            if len(bucket.items) >= bucket.cap:
                r["status"] = RequestStatus.DROPPED
                dropped += 1
                continue
            r["status"] = RequestStatus.IN_UPF_QUEUE
            bucket.items.append(r)
            admitted += 1
            if j is not None:
                self.mecs[j].pending += 1

        for i, upf in enumerate(self.upfs):
            for qos in SERVICE_ORDER:
                for r in upf[qos].serve():
                    served_upf += 1
                    r["upf_serve_epoch"] = e
                    if not qos.uses_mec:
                        r["status"] = RequestStatus.COMPLETED
                        completed += 1
                        continue
                    j = r["assigned_mec"] - 1
                    link = self.links[(i, j)]
                    link[0] += 1  # the entering transfer counts itself
                    bandwidth = self.s.link_bandwidth_mbps[i][j] * 1e3
                    r["d_net"] = net_delay(link[0], self.s.mecs[j].bytes_per_ue, bandwidth)
                    r["mec_due_epoch"] = e + transit_epochs(r["d_net"], delta)
                    r["status"] = RequestStatus.IN_TRANSIT
                    link[1].append((r, r["mec_due_epoch"]))

        for (i, j), link in sorted(self.links.items()):
            mec, still = self.mecs[j], []
            for r, due in link[1]:
                if due > e:
                    still.append((r, due))
                    continue
                link[0] -= 1
                mec.pending -= 1
                if len(mec.items) >= mec.cap:
                    r["status"] = RequestStatus.DROPPED
                    dropped += 1
                else:
                    r["status"] = RequestStatus.IN_MEC_QUEUE
                    mec.items.append(r)
            link[1] = still

        for mec in self.mecs:
            for r in mec.serve():
                served_mec += 1
                r["mec_serve_epoch"] = e
                r["status"] = RequestStatus.COMPLETED
        completed += served_mec

        self.completed += completed
        self.dropped += dropped
        self.reports.append(EpochReport(
            epoch=e, arrivals=len(origins), admitted=admitted, dropped=dropped,
            served_upf=served_upf, served_mec=served_mec, completed=completed,
            in_flight=len(self.requests) - self.completed - self.dropped,
            upf_queues=tuple(len(u[q].items) for u in self.upfs for q in REPORT_ORDER),
            mec_queues=tuple(len(m.items) for m in self.mecs),
        ))
        self.epoch += 1

    def run(self):
        while self.epoch < self.s.horizon_epochs:
            self.step(True)
        cap = self.s.drain_cap_epochs
        if cap is None:
            cap = 10 * max(1, self.s.horizon_epochs)
        for _ in range(cap):
            if len(self.requests) == self.completed + self.dropped:
                break
            self.step(False)
        return self


def reference_run(scenario):
    """A naive run of scenario: its columns, statuses and decision inputs, reports and arrivals.

    The columns are {name: list} over ``COLUMNS``, ``"status"``,
    ``"mec_due_epoch"`` and ``INPUTS``, but ``qos`` is bytes of class codes and ``drop`` bytes of
    flags, as the engine keeps them; the arrival epochs are a list in id
    order.
    """
    ref = Reference(scenario).run()
    names = [c for c in COLUMNS if c != "drop"] + ["status", "mec_due_epoch", *INPUTS]
    columns = {c: [r[c] for r in ref.requests] for c in names}
    columns["qos"] = bytes(columns["qos"])
    columns["drop"] = bytes(s is RequestStatus.DROPPED for s in columns["status"])
    return columns, ref.reports, [r["arrival_epoch"] for r in ref.requests]
